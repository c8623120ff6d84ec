(** The [ppcache serve] protocol: NDJSON design-space queries answered
    from a persistent model store behind a per-request fault boundary.

    One request per line, one response per line, schema version
    {!serve_schema_version}.  Requests are JSON objects:

    {v
    {"id": ..., "op": "optimize" | "miss_curve" | "amat" | "health", ...}
    v}

    - [id] (any JSON value, echoed verbatim in the response; [null]
      when absent or the line is unparseable);
    - [tag] (optional string): the {!Nmcache_engine.Faultpoint} key for
      the [serve.request] injection point — chaos harnesses poison
      requests by tag, deterministically, whatever [--jobs] is.
      Defaults to the rendered [id].

    Operations:

    - [optimize]: [scheme] ("I"/"II"/"III", default "I"), [size_kb]
      (default: the context L1 size), [assoc], [block_bytes],
      [output_bits], [delay_budget_ps] (required, > 0).  Runs the
      paper's constrained leakage minimisation on the fitted model of
      that cache and returns the winning (Vth, Tox) assignment, its
      leakage and access time — or [feasible: false] when even the
      fastest assignment misses the budget.
    - [miss_curve]: [workload] (required), [l1_kb], [l2_kb] (required
      non-empty integer list), [n], [seed], [assoc], [block_bytes].
      Returns the L1 miss rate and the local L2 miss ratio at every
      requested capacity, derived from one stack-distance profile.
    - [amat]: [t_l1_ps], [t_l2_ps], [t_mem_ps], [m1], [m2] — the
      closed-form two-level AMAT.  Never cached (cheaper than a store
      lookup).
    - [health]: uptime, pid, store occupancy, in-flight count, request
      counters and the breaker table.  Responses are intentionally
      {e not} deterministic (uptime) — byte-identity gates exclude
      them.

    Success responses are
    [{"serve_schema_version":1,"id":...,"result":{...}}]; a degraded
    answer (breaker open, served from the nearest cached optimum)
    additionally carries ["degraded":true] and ["degraded_from"].
    Errors are [{"serve_schema_version":1,"id":...,"error":{"kind":...,
    "stage":...,"detail":...}}] where [kind] is a {!Nmcache_engine.Fault.kind}
    name or one of the serve-level kinds [bad_request] (unparseable or
    invalid request), [overloaded] (admission control: more than
    [max_points] curve points, [n] beyond [max_n], or an overlong
    line) and [circuit_open] (breaker open with nothing cached to
    degrade to).  Error details are redacted: a [crashed] fault keeps
    only the exception constructor, never raw exception text that
    could carry local paths.

    Caching: fitted models (namespace ["model.r2"]) persist in the
    {!Nmcache_engine.Store} across runs, and so do the rendered bytes of
    every miss-curve and optimisation [result] object (["curve.r1"],
    ["optimize.r1"]), keyed by canonical request parameters plus
    {!Context.fingerprint} — a store written under one context is never
    served into another.  A warm hit splices the stored bytes into the
    response without rendering anything.  A cold key is computed once:
    concurrent requests for it wait for the first and are answered from
    the store, as they would be one after another, so the store's
    counts do not depend on [--jobs] either.  The [id]/[tag] fields are
    {e not} part of the key, so replays and renamed requests hit.  The
    ["model"], ["curve"] and ["optimize"] namespaces of older stores
    held other value types and are never read.

    Determinism: responses never contain timings, store hit/miss
    markers or clocks; breaker updates and nearest-model index growth
    happen in the settle phase the serve loop runs in request order.
    The same request stream therefore produces byte-identical
    responses at any [--jobs], from a warm or a cold store, before or
    after a kill/restart. *)

val serve_schema_version : int

type t

val create :
  ?max_points:int ->
  ?max_n:int ->
  ?breaker:Nmcache_engine.Breaker.t ->
  ?store:Nmcache_engine.Store.t ->
  ctx:Context.t ->
  queue:int ->
  jobs:int ->
  unit ->
  t
(** [max_points] (default 64) bounds the [l2_kb] list of one
    [miss_curve] request; [max_n] (default 100_000_000) bounds its
    trace length — both reject with [overloaded] before any work
    happens.  [breaker] defaults to a fresh breaker (threshold 3,
    cooldown 8).  When [store] is given, the nearest-optimum index is
    seeded from its ["optimize.r1"] namespace, so degraded answers
    survive restarts; seeding counts no store hit. *)

val handler : t -> Nmcache_engine.Server.handler
(** The per-line handler for {!Nmcache_engine.Server.serve}.  Total:
    every failure becomes a structured error response. *)

val handle_line : t -> string -> string * (unit -> unit)
(** [handler] uncurried for tests and perfbench's layer ledger. *)

val crash_response : line:string -> Nmcache_engine.Fault.t -> string
(** Response for a handler that raised anyway (the serve loop's outer
    fault boundary) — redacted like every other error. *)

val overlong_response : unit -> string
(** Response for a request line over
    {!Nmcache_engine.Server.max_line_bytes} ([overloaded] /
    [serve.admission]). *)

val shed_response : unit -> string
(** Response for a request or connection refused by load shedding —
    the socket server at its connection cap or global queue bound
    ([overloaded] / [serve.admission]).  Deterministic: no counts,
    no timestamps. *)

val redact : Nmcache_engine.Fault.t -> Nmcache_engine.Fault.t
(** [Crashed] details are reduced to the exception constructor token
    (everything before the first '(', space, quote or '/'): typed
    fault details are deterministic by construction, but a raw
    [Printexc.to_string] can embed local filesystem paths, which must
    never reach a response.  Other kinds pass through. *)

val breaker : t -> Nmcache_engine.Breaker.t
(** The service's breaker (tests inspect and reset it). *)

val requests_ok : t -> int
val requests_error : t -> int
val requests_degraded : t -> int
(** Settle-phase request counters (also surfaced by [health]). *)
