(** The processor memory system: L1 + L2 + main memory.

    Combines two fitted caches with the miss rates supplied by
    architectural simulation and a main-memory model, and evaluates any
    per-group (Vth, Tox) assignment into (AMAT, total energy per
    access).  Total energy charges dynamic energy along the hit/miss
    path plus all leakage integrated over one average access interval:

    E = E_L1 + m₁·E_L2 + m₁·m₂·E_mem + (P_leak,L1 + P_leak,L2 +
        P_standby,mem) · AMAT

    which is the quantity on Figure 2's y-axis. *)

type t

val make :
  l1:Nmcache_fit.Fitted_cache.t ->
  l2:Nmcache_fit.Fitted_cache.t ->
  mem:Main_memory.t ->
  m1:float ->
  m2:float ->
  t
(** [m1], [m2] are the local L1/L2 miss rates.  Raises
    [Invalid_argument] on rates outside [0, 1]. *)

val l1 : t -> Nmcache_fit.Fitted_cache.t
val l2 : t -> Nmcache_fit.Fitted_cache.t
val mem : t -> Main_memory.t
val m1 : t -> float
val m2 : t -> float

(** {1 Knob groups}

    The Figure-2 optimisation assigns pairs at the granularity the
    single-cache study showed sufficient (scheme II per cache): the cell
    array and the peripherals of each level — four groups. *)

type group = L1_cell | L1_periph | L2_cell | L2_periph

val groups : group list
val group_index : group -> int
(** 0..3 in [groups] order. *)

type group_eval = {
  delay : float;   (** contribution to that cache's hit time [s] *)
  leak_w : float;
  dyn_energy : float;
}

val eval_group : t -> group -> Nmcache_geometry.Component.knob -> group_eval
(** Fitted-model sums over the components the group covers. *)

type eval = {
  amat : float;             (** [s] *)
  energy_per_access : float; (** [J] — Figure 2's y-axis *)
  t_l1 : float;
  t_l2 : float;
  leak_w : float;           (** total system leakage [W] *)
  dyn_energy : float;       (** dynamic energy per access [J] *)
}

val evaluate :
  t -> (group -> Nmcache_geometry.Component.knob) -> eval
(** Evaluate a full system assignment. *)

val evaluate_uniform : t -> Nmcache_geometry.Component.knob -> eval
(** All four groups on one pair (baseline). *)
