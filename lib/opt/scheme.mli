(** The paper's three Vth/Tox assignment schemes (Section 4) and the
    constrained leakage minimisation under each.

    - Scheme I:   an independent (Vth, Tox) pair per component;
    - Scheme II:  one pair for the cell array, one shared by the three
                  peripheral components;
    - Scheme III: a single pair for the whole cache.

    The optimisation problem is:  minimise Σᵢ Pᵢ(Vthᵢ, Toxᵢ) subject to
    Σᵢ Tᵢ(Vthᵢ, Toxᵢ) ≤ delay budget, knobs drawn from the discrete
    grid.  Schemes II/III are solved exhaustively.  Scheme I (13⁴·9⁴
    raw combinations) is solved exactly by pairing (delay, leakage)
    Pareto fronts: one front for components 0+1, one for 2+3, and a
    binary search of the second for each point of the first.  All
    three schemes decide feasibility by the same left-to-right sum of
    component delays, so their optima agree with brute force to the
    last bit of the budget test. *)

type t = Independent | Split | Uniform

val all : t list
val name : t -> string
(** "I" / "II" / "III". *)

val of_name : string -> t option

type result = {
  scheme : t;
  assignment : Nmcache_geometry.Component.assignment;
  leak_w : float;       (** fitted-model leakage at the optimum [W] *)
  access_time : float;  (** fitted-model delay at the optimum [s] *)
}

val minimize_leakage :
  Nmcache_fit.Fitted_cache.t ->
  grid:Grid.t ->
  scheme:t ->
  delay_budget:float ->
  result option
(** Minimum-leakage assignment meeting the budget, or [None] when even
    the fastest assignment misses it.  Raises [Invalid_argument] on a
    non-positive budget. *)

val fastest_access_time : Nmcache_fit.Fitted_cache.t -> grid:Grid.t -> float
(** Access time of the all-fastest-knob assignment — the lower limit of
    feasible delay budgets. *)

val slowest_access_time : Nmcache_fit.Fitted_cache.t -> grid:Grid.t -> float
(** Access time of the all-slowest-knob assignment. *)
