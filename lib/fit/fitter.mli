(** Fitting the compact models to characterisation samples.

    Both model forms are {e separable}: for fixed exponents the
    remaining coefficients are linear.  The leakage fit is a variable
    projection: damped Gauss–Newton over its two exponents, started
    from the best point of a 12×7 exponent grid, with the exact
    weighted QR solve for (A0, A1, A2) inside every step; it stops on a
    relative step or a vanishing gradient.  The delay fit profiles its
    exponent over a grid with linear least squares inside, then refines
    all four parameters with Levenberg–Marquardt.  This mirrors how one
    extracts the paper's equations from HSPICE data.

    Fit failure is treated as an expected input, not an exception:
    compact leakage models go ill-conditioned at corner regions, so
    each fit runs behind a fault boundary.  [Linsolve.Singular] and
    [Lm.Non_finite] escape as typed
    {!Nmcache_engine.Fault.Fault} values ([Singular_system] /
    [Non_finite], stage [fit.leak] / [fit.delay] / [fit.energy]).  A
    fit that remains unconverged after its retries (leakage: restarted
    from the next-best grid point; delay: seeded LM multi-starts) still
    returns its first attempt's model, recording a degraded-quality
    [Fit_diverged] fault.  Leakage attempts count under the same
    [lm.*] metrics as the LM fits.  Each fit also exposes a
    {!Nmcache_engine.Faultpoint} named after its stage, keyed by a
    deterministic fingerprint of the sample set. *)

type samples = (Nmcache_geometry.Component.knob * Nmcache_geometry.Component.summary) array
(** The output of {!Nmcache_geometry.Cache_model.characterize}. *)

val fit_leak : samples -> Model.leak * Model.quality
(** Fit P = A0 + A1·exp(a1·Vth) + A2·exp(a2·ToxÅ) to the samples'
    [leak_w] field.  Raises [Invalid_argument] on fewer than 6
    samples. *)

val fit_delay : samples -> Model.delay * Model.quality
(** Fit T = k0 + k1·exp(k3·Vth) + k2·ToxÅ to the samples' [delay]
    field.  Raises [Invalid_argument] on fewer than 5 samples. *)

val fit_energy : samples -> Model.energy * Model.quality
(** Linear fit of dynamic energy against ToxÅ. *)

val quality_leak : Model.leak -> samples -> Model.quality
val quality_delay : Model.delay -> samples -> Model.quality
(** Re-evaluate fit quality of a model against (possibly different)
    samples — used by the fit-audit experiment. *)
