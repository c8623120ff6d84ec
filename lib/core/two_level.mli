(** Section 5 experiments: two-level cache leakage optimisation.

    All three studies hold an AMAT target fixed (taken from the default
    L1 = 16 KB / L2 = 1 MB system at the reference knob) and ask which
    organisation + knob assignment minimises leakage while meeting it:

    - {!l2_single_pair} (T2): one (Vth, Tox) pair for the whole L2 —
      the paper finds bigger L2s leak less, up to a turnover;
    - {!l2_two_pair} (T3): separate cell/peripheral pairs — the paper
      finds aggressive peripherals beat growing the array, so smaller
      L2s win;
    - {!l1_sweep} (T4): L1 sizing under a fixed L2 — small L1s win
      because L1 local miss rates are low and flat. *)

type l2_row = {
  l2_size : int;
  m2 : float;                     (** local L2 miss rate at this size *)
  t_l2_budget : float option;     (** L2 hit-time budget implied by the AMAT target *)
  result : Nmcache_opt.Scheme.result option;  (** optimal L2 assignment *)
  l2_leak : float option;         (** [W] *)
  total_leak : float option;      (** L2 + (reference) L1 leakage [W] *)
}

type l2_sweep = {
  target_amat : float;
  m1 : float;
  t_l1 : float;
  l1_leak : float;
  rows : l2_row list;
}

val m2_of_curve : Nmcache_workload.Missrate.l2_curve -> int -> float
(** Local L2 miss rate at an exact simulated size.  Raises
    [Invalid_argument] naming the requested size, the workload and the
    simulated sizes when [size] is not one of the curve's [l2_sizes],
    so a misaligned sweep is diagnosable from the message alone. *)

val l2_sweep : Context.t -> scheme:Nmcache_opt.Scheme.t -> l2_sweep
(** The AMAT target is 1.08 × the reference system's AMAT: the
    constraint sits 8 % above it, keeping small organisations in play
    as in the paper's iso-AMAT comparisons.  T2 and T3 share it. *)

val l2_single_pair : Context.t -> Report.artefact list
val l2_two_pair : Context.t -> Report.artefact list

val best_l2_size : l2_sweep -> int option
(** Size with the smallest total leakage among feasible rows. *)

val two_pair_gain : single:l2_sweep -> split:l2_sweep -> (int * float) option
(** The smallest L2 size at which the per-component-pair sweep [split]
    leaks over 0.1 % less in total than the single-pair sweep [single]
    (both over the same sizes), with that fractional saving; [None]
    when no size gains that much. *)

type l1_row = {
  l1_size : int;
  m1 : float;
  t_l1_budget : float option;
  l1_result : Nmcache_opt.Scheme.result option;
  l1_leak : float option;
  l1_total_leak : float option;   (** L1 + (reference) L2 leakage [W] *)
}

type l1_sweep = {
  l1_target_amat : float;
  l1_rows : l1_row list;
}

val l1_sweep_rows : Context.t -> l1_sweep
(** The AMAT target is 1.05 × the reference system's AMAT, 5 % above
    it. *)

val l1_sweep : Context.t -> Report.artefact list
val best_l1_size : l1_sweep -> int option
