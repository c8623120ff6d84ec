(** The paper's claims, each defined once and evaluated live against the
    reproduction.  This is EXPERIMENTS.md's "status" column computed
    rather than asserted: [ppcache run summary] renders the verdicts as
    a table, and [ppcache verify anchors] gates the same verdicts, one
    [anchor.<id>] check each.  Every condition and tolerance a claim is
    judged by lives in this module, except T3's 0.1 % gain floor, which
    {!Two_level.two_pair_gain} shares with the [l2sweep2] note.

    The claims fall into six sections, each judged from its own
    experiments:
    - [sensitivity] (Figure 1, §4): leakage responds more to Tox than
      to Vth, while Vth buys the wider delay range;
    - [schemes] (§4, T1): I ≤ II ≤ III at every budget with III well
      above II somewhere, II within 1.25× of I everywhere, and a cell
      array at least as conservative as every peripheral;
    - [l2-sizing] (§5, T2): with one pair per L2, a bigger L2 leaks
      less (a larger size meets the AMAT target the smallest misses, or
      some feasible size leaks more than the next), the local L2 miss
      rate falls and the L2 hit-time budget grows with size; and the
      largest L2 is not the best;
    - [l2-two-pair] (§5, T3): per-component pairs beat a single pair at
      some L2 size;
    - [l1-sizing] (§5, T4): the smallest swept L1 (at most 16 KB)
      minimises total leakage, with the local L1 miss rate falling in
      size;
    - [fig2] (Figure 2): 2 Tox + 3 Vth is lowest, 2 + 2 is within 15 %
      of it, and 1 Tox + 2 Vth beats 2 Tox + 1 Vth at the relaxed end.

    A claim judged over many budgets is one verdict: it holds only if
    every budget holds, and its evidence names the worst one. *)

type verdict = {
  id : string;           (** stable, dotted: [<section>.<claim>] *)
  claim : string;        (** the paper's statement *)
  source : string;       (** where in the paper it lives *)
  holds : bool;
  evidence : string;     (** the measured numbers behind the verdict *)
}

type section = {
  name : string;                       (** the prefix of its verdicts' ids *)
  judge : Context.t -> verdict list;   (** runs the section's experiments *)
}

val sections : section list
(** In the order above. *)

val verdicts : Context.t -> verdict list
(** Every section's verdicts, in section order (memoised inputs make
    repeat calls cheap). *)

val bigger_l2_leaks_less : Two_level.l2_sweep -> verdict
(** The T2 verdict [l2-sizing.bigger-leaks-less] on a single-pair L2
    sweep. *)

val run : Context.t -> Report.artefact list
(** The verdicts as a table artefact. *)
