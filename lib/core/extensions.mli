(** Second wave of extension studies (X6–X10): process variation, supply
    scaling, the drowsy-cache alternative, optimiser cross-checks and
    architectural-geometry sweeps. *)

val variation_study : Context.t -> Report.artefact list
(** X6 — within-die Vth variation: Pelgrom sigma per device class,
    analytic vs Monte-Carlo mean-leakage inflation of the 16 KB cache,
    and the yield-corner (99.9 %) device factor. *)

val vdd_sensitivity : Context.t -> Report.artefact list
(** X7 — supply scaling: re-characterise at 0.9/1.0/1.1 V; lower Vdd
    slows the cache but cuts both leakage power and dynamic energy. *)

val drowsy_comparison : Context.t -> Report.artefact list
(** X8 — circuit-level drowsy standby vs process-knob assignment on the
    1 MB L2: leakage and access-time cost of each, and of the
    combination. *)

val anneal_crosscheck : Context.t -> Report.artefact list
(** X9 — simulated annealing vs the exact Pareto search on Scheme-I problems:
    optimality gap across budgets. *)

val geometry_sweeps : Context.t -> Report.artefact list
(** X10 — L1 associativity and block-size sweeps: miss rate
    (simulation) and leakage/delay (geometry model) together. *)

val prefetch_study : Context.t -> Report.artefact list
(** X11 — next-line prefetching vs L2 size: does stream prefetching
    change the L2-sizing conclusion?  Reports per-size L2 local miss
    rates with prefetch degrees 0/1/2 and the prefetcher's accuracy. *)
