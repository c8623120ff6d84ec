(** A cache whose four components have been characterised and fitted.

    This is the representation the paper's optimisations actually run
    on: closed-form per-component models, summed under the independence
    assumption of Section 3.  The underlying circuit model is retained
    so fit-audit experiments can compare against "HSPICE truth". *)

type component_model = {
  kind : Nmcache_geometry.Component.kind;
  leak : Model.leak;
  leak_quality : Model.quality;
  delay : Model.delay;
  delay_quality : Model.quality;
  energy : Model.energy;
  energy_quality : Model.quality;
}

type t

val characterize_and_fit :
  ?vth_steps:int ->
  ?tox_steps:int ->
  ?vth_range:float * float ->
  ?tox_range:float * float ->
  Nmcache_geometry.Cache_model.t ->
  t
(** Sweep each component over the knob ranges ([vth_steps]+1 ×
    [tox_steps]+1 points, defaults 6 and 4; ranges default to the
    technology's legal bounds) and fit the compact models.  This is
    the expensive step; everything downstream is closed-form.  The
    ranges are remembered: evaluating the fitted models outside them
    raises an [Out_of_domain] {!Nmcache_engine.Fault.Fault}.  Raises
    [Invalid_argument] on an empty range. *)

val circuit_model : t -> Nmcache_geometry.Cache_model.t
val component : t -> Nmcache_geometry.Component.kind -> component_model
val components : t -> component_model list

val samples : t -> Nmcache_geometry.Component.kind -> Fitter.samples
(** The raw characterisation samples one component's models were fitted
    to, recomputed over the same knob grid (characterisation is
    deterministic) — so verification can re-evaluate the compact models
    against their own training data ({!Fitter.quality_leak} /
    {!Fitter.quality_delay} residual bounds). *)

val vth_range : t -> float * float
val tox_range : t -> float * float
(** The (Vth [V], Tox [m]) box the fits were characterised over. *)

val check_domain : t -> Nmcache_geometry.Component.knob -> unit
(** Raise an [Out_of_domain] {!Nmcache_engine.Fault.Fault} (stage
    [model.eval]) if the knob lies outside the fitted box, beyond a
    1e-6-of-range epsilon that absorbs grid-endpoint float drift.
    Called by every fitted evaluation below. *)

val leak_of : t -> Nmcache_geometry.Component.kind -> Nmcache_geometry.Component.knob -> float
(** Fitted leakage of one component [W]. *)

val delay_of : t -> Nmcache_geometry.Component.kind -> Nmcache_geometry.Component.knob -> float
(** Fitted delay contribution of one component [s]. *)

val energy_of : t -> Nmcache_geometry.Component.kind -> Nmcache_geometry.Component.knob -> float
(** Fitted dynamic energy of one component [J]. *)

type estimate = {
  access_time : float;  (** Σ fitted delays [s] *)
  leak_w : float;       (** Σ fitted leakage [W] *)
  dyn_energy : float;   (** Σ fitted dynamic energy per access [J] *)
}

val eval : t -> Nmcache_geometry.Component.assignment -> estimate
(** Closed-form evaluation of a full assignment. *)

val exact : t -> Nmcache_geometry.Component.assignment -> Nmcache_geometry.Cache_model.report
(** Ground-truth circuit-model evaluation (for audits). *)

val worst_quality : t -> Model.quality
(** The worst (leak or delay) fit quality over all components — a quick
    health indicator; experiments assert R² stays high. *)
