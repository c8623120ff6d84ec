(** Simulated annealing over per-component knob assignments.

    A stochastic cross-check for the exact Pareto search of
    {!Scheme.minimize} (Scheme I), and the fallback optimiser
    for objective shapes that search cannot decompose (couplings across
    components, non-additive penalties).  The constraint is folded in as
    a smooth penalty: states over the delay budget pay
    [penalty_weight · (excess / budget)] of extra (relative) cost. *)

type params = {
  iterations : int;      (** total proposal count (default 20000) *)
  t_start : float;       (** initial temperature, relative-cost units (default 1.0) *)
  t_end : float;         (** final temperature (default 1e-4) *)
  penalty_weight : float; (** relative cost per unit of budget excess (default 10) *)
  seed : int64;
}

val default_params : params

type result = {
  assignment : Nmcache_geometry.Component.assignment;
  leak_w : float;
  access_time : float;
  feasible : bool;     (** the best state met the budget *)
  evaluations : int;
}

val minimize_leakage :
  ?params:params -> Scheme.tables -> delay_budget:float -> unit -> result
(** Anneal a Scheme-I assignment (independent pair per component)
    over the cache's tables toward minimum leakage under the budget.  Deterministic for a given
    [params.seed].  Raises [Invalid_argument] on a non-positive
    budget. *)
