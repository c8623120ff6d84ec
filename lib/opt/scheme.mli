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

type tables = private {
  knobs : Nmcache_geometry.Component.knob array;  (** the grid's knobs, vth-major *)
  leak : float array array;
      (** fitted leakage [W], indexed [component][knob], components in
          {!Nmcache_geometry.Component.all_kinds} order *)
  delay : float array array;  (** fitted delay contribution [s], same layout *)
  energy : float array array;  (** fitted dynamic energy [J], same layout *)
}
(** A fitted cache tabulated over a grid: what every search reads. *)

val tables : Nmcache_fit.Fitted_cache.t -> grid:Grid.t -> tables
(** Evaluate every component's fitted models at every grid knob, one
    ["scheme.tables"] sweep task per knob.  The only code that
    tabulates fitted models for a search: build it once per (cache,
    grid) and ask it every question ([Core.Context.tables] memoises
    it). *)

val totals : tables -> int array -> float * float
(** Leakage and delay of the assignment taking knob [idx.(c)] for
    component [c]: each summed in component order, as every search
    sums them. *)

val assignment : tables -> int array -> Nmcache_geometry.Component.assignment
(** That assignment. *)

val minimize : tables -> scheme:t -> delay_budget:float -> result option
(** Minimum-leakage assignment meeting the budget, or [None] when even
    the fastest assignment misses it.  Raises [Invalid_argument] on a
    non-positive budget. *)

val fastest : tables -> float
(** Access time of the all-fastest-knob assignment — the lower limit of
    feasible delay budgets. *)

val slowest : tables -> float
(** Access time of the all-slowest-knob assignment. *)

val minimize_leakage :
  Nmcache_fit.Fitted_cache.t ->
  grid:Grid.t ->
  scheme:t ->
  delay_budget:float ->
  result option
(** [minimize (tables fitted ~grid)], tabulating on every call. *)

val fastest_access_time : Nmcache_fit.Fitted_cache.t -> grid:Grid.t -> float
(** [fastest (tables fitted ~grid)], tabulating on every call. *)
