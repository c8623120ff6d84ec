(** Differential oracles: independent reference implementations the
    production hot paths must agree with.

    Cross-checks, each pairing an optimised implementation with a
    brute-force or first-principles reference:

    - {!scheme}: exhaustive (Vth, Tox)-grid enumeration on a
      downsampled grid vs the production optimisers — the Scheme I
      Pareto search and the Scheme II/III exhaustive searches must
      match the enumerated optimum to 1e-9 relative, and the annealer
      must land within 5% above it while meeting the budget;
    - {!mattson}: the one-pass stack-distance profiler vs direct
      {!Nmcache_cachesim.Cache} simulation — exact equality against
      fully-associative LRU at every probed capacity, bounded
      divergence against 8-way set-associative LRU/FIFO/PLRU (the
      approximation the miss-rate tables lean on);
    - {!fit}: the fitted compact models re-evaluated against the raw
      characterisation samples they were trained on — recomputed
      quality must reproduce the stored quality exactly and respect
      per-component residual bounds (R² ≥ 0.90, max relative residual
      ≤ 40%);
    - {!clean}: every L1 and L2 size the experiments sweep, fitted
      afresh without fault injection, must record no fault, exhaust no
      retry and converge every fit on its first attempt (skipped, as a
      passing check, when injection is armed);
    - {!profile}: the profile-once derivation layer vs direct
      simulation — fully-associative derivations must match direct LRU
      miss-for-miss (warmup included), the binomial set-associative
      correction must stay within 0.03 absolute miss rate of direct
      4-/8-way LRU, the profile-backed L2 curve must reproduce the
      legacy single-pass fold float-for-float, and an L1×L2 grid must
      cost exactly one measured traversal per (workload, L1 size) as
      counted by the [cachesim.mattson_curves] /
      [cachesim.simulations] metrics;
    - {!stream}: the chunked streaming engine vs materialised traces —
      for every headline workload and probed chunk size, streamed
      analysis, cache replay and two-level simulation must equal the
      materialised results bit for bit, a PPTRC01 recording must
      round-trip entry-exactly (re-chunked on read), and an empty
      stream must analyze to the defined zero statistics.

    All checks are deterministic for a fixed context (seeded traces,
    fixed grids) and independent of [--jobs]. *)

val scheme : Core.Context.t -> Check.t list
val mattson : Core.Context.t -> Check.t list
val fit : Core.Context.t -> Check.t list
val clean : Core.Context.t -> Check.t list
val profile : Core.Context.t -> Check.t list
val stream : Core.Context.t -> Check.t list

val all : Core.Context.t -> Check.t list
(** The six oracles, each behind its own {!Check.group} fault
    boundary, in the order above. *)
