(** Fitting the compact models to characterisation samples.

    Both model forms are {e separable}: for fixed exponents the
    remaining coefficients are linear.  Both fits are variable
    projections sharing one implementation: damped Gauss–Newton over
    the exponents with Kaufman's Jacobian, and the exact weighted QR
    solve for the linear coefficients inside every step.  The leakage fit
    searches its two exponents from the best point of a 12×7 grid; the
    delay fit searches k3 alone from the best point of a 50-point grid.
    Each exponent point's design is factored once, and its
    coefficients and Jacobian columns are solves against that
    factorisation, in workspaces reused for the whole fit.  A fit stops
    on a relative step or a vanishing gradient.  This mirrors how one
    extracts the paper's equations from HSPICE data.

    Fit failure is treated as an expected input, not an exception:
    compact leakage models go ill-conditioned at corner regions, so
    each fit runs behind a fault boundary.  A NaN or Inf knob or value
    is rejected before any solve, and [Linsolve.Singular] escapes as a
    typed {!Nmcache_engine.Fault.Fault} ([Non_finite] /
    [Singular_system], stage [fit.leak] / [fit.delay] /
    [fit.energy]).  An unconverged attempt is retried from the
    next-best grid point; a fit that remains unconverged after its
    retries still returns its first attempt's model, recording a
    degraded-quality [Fit_diverged] fault.  Attempts are counted under
    the [lm.fits], [lm.converged] and [lm.<model>.*] metrics: the names
    predate the variable projection and are kept because the benchmark
    ledger reads them.  Each fit also exposes a
    {!Nmcache_engine.Faultpoint} named after its stage, keyed by
    {!samples_key}. *)

type samples = (Nmcache_geometry.Component.knob * Nmcache_geometry.Component.summary) array
(** The output of {!Nmcache_geometry.Cache_model.characterize}. *)

val samples_key : samples -> string
(** A deterministic fingerprint of a sample set: the key of the fits'
    fault points and the sample reference in their fault details. *)

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
