(** The (#Tox, #Vth) tuple problem (Figure 2).

    A process may only offer a limited number of distinct threshold
    voltages and oxide thicknesses.  For a given budget (n_vth values,
    n_tox values), the designer first chooses {e which} values to buy
    from the design grid, then assigns each knob group one of the
    n_vth × n_tox pairs.  This module enumerates both levels exhaustively
    and returns the Pareto frontier of (AMAT, energy) over all choices —
    one frontier per budget, exactly the curves of the paper's Figure 2.

    The evaluation callback abstracts the system model, so the module
    stays independent of the energy layer.  It evaluates a {e row}: the
    pairs of groups 1..n−1 fixed, every allowed pair of group 0, written
    into float arrays the search owns, so no assignment allocates. *)

type spec = {
  n_vth : int;
  n_tox : int;
}

val spec_name : spec -> string
(** e.g. ["2 Tox + 3 Vth"]. *)

type point = {
  amat : float;
  energy : float;
  vth_set : float array;    (** the chosen threshold values *)
  tox_set : float array;    (** the chosen oxide values [m] *)
  group_knobs : Nmcache_geometry.Component.knob array;  (** per group *)
}

type row_eval =
  groups:int array -> pairs:int array -> amat:float array -> energy:float array -> unit
(** [eval ~groups ~pairs ~amat ~energy] evaluates one row of
    assignments.  [groups.(g)], for every group [g] ≥ 1, is the flat
    grid index (vth-major, as {!Grid.knobs}) of group [g]'s pair;
    [groups.(0)] is unspecified.  For every [k] below
    [Array.length pairs], [eval] must write into [amat.(k)] and
    [energy.(k)] the two objectives of the assignment that gives group
    0 the pair [pairs.(k)] and every other group its [groups] entry.
    [amat] and [energy] are at least as long as [pairs]; the search
    owns all four arrays and reuses them from row to row, so [eval]
    must keep none of them, and should allocate nothing: it runs once
    per (n_vth·n_tox)^(n−1) assignments.  Hoisting what depends on
    groups 1..n−1 alone out of the row keeps its answers bit for bit
    the per-assignment ones only if every remaining expression keeps
    its association order. *)

val pareto_curve :
  grid:Grid.t ->
  n_groups:int ->
  eval:row_eval ->
  spec:spec ->
  point list
(** [pareto_curve ~grid ~n_groups ~eval ~spec] enumerates every value
    subset (vth-set-major, subsets in lexicographic order) and, within
    it, every assignment as an odometer with group 0 turning fastest,
    one {!row_eval} row at a time.  Each assignment falls into one of
    1,024 amat bins spanning the uniform assignments' range; a bin keeps
    the least energy, the first one found on a tie.  The result is the
    non-dominated (amat, energy) set of the bins, ascending in amat.

    Raises [Invalid_argument] when the spec exceeds the grid, or
    [n_groups] is not in [1, 8]. *)

val curves :
  grid:Grid.t ->
  n_groups:int ->
  eval:row_eval ->
  specs:spec list ->
  (spec * point list) list
(** {!pareto_curve} for each spec. *)

val figure2_specs : spec list
(** The five budgets of Figure 2: 2T+2V, 2T+3V, 3T+2V, 2T+1V, 1T+2V. *)
