(** Miss-rate tables: the interface between architectural simulation and
    the energy/optimisation layers.

    Two paths are provided:
    - {!simulate} and {!simulate_many}: exact set-associative
      simulation of L1-only or two-level configurations, every
      configuration of a call fed by one walk of the trace;
    - everything else is {e derived} from the stack-distance profiles in
      {!Profile}: one measured trace traversal per (workload, L1 config)
      yields the miss rate for every capacity at once — exact for
      fully-associative LRU (excellent for the ≥ 8-way L2s studied
      here), binomial-corrected for set-associative L1 sweeps
      (oracle-checked to ≤ 0.03 absolute miss rate).

    Results are memoised per (workload, parameters) within the process,
    so experiments and benches can re-query freely; changing the query
    capacities never re-walks a trace. *)

type point = {
  l1_miss : float;     (** local L1 miss rate *)
  l2_local : float;    (** L2 misses / L2 accesses *)
  l2_global : float;   (** L2 misses / L1 accesses *)
}

val point_of_pair : Nmcache_cachesim.Cache.pair -> point
(** The rates of an L1/L2 pair's statistics so far. *)

val simulate :
  ?l1_assoc:int ->
  ?l2_assoc:int ->
  ?block:int ->
  ?policy:Nmcache_cachesim.Replacement.t ->
  ?seed:int64 ->
  workload:string ->
  l1_size:int ->
  l2_size:int ->
  n:int ->
  unit ->
  point
(** Exact simulation of [n] accesses (defaults: L1 4-way, L2 8-way,
    64 B blocks, LRU): a one-member {!simulate_many}, without its
    checkpoint slot.  Raises [Invalid_argument] for unknown workloads
    or invalid cache shapes. *)

type config = {
  l1_size : int;
  l1_assoc : int;
  l2 : (int * int) option;  (** [(size, assoc)], or [None] for an L1-only cache *)
  block : int;
  policy : Nmcache_cachesim.Replacement.t;
}
(** One cache configuration of a {!simulate_many} batch. *)

val config :
  ?l1_assoc:int ->
  ?l2_size:int ->
  ?l2_assoc:int ->
  ?block:int ->
  ?policy:Nmcache_cachesim.Replacement.t ->
  l1_size:int ->
  unit ->
  config
(** Defaults as {!simulate}; L1-only without [l2_size]. *)

val simulate_many : ?seed:int64 -> workload:string -> n:int -> config list -> point list
(** Simulate every configuration over one trace, in order, with one
    walk for all that are not memoised yet.  Each two-level
    configuration is memoised as {!simulate} memoises it.  An L1-only
    one is memoised per (workload, L1 shape, policy, seed, n), and its
    point reports [l2_local] and [l2_global] as [nan].  Each
    configuration passes the [simulate] fault point and retry boundary
    under its own key, so a fault fails that configuration alone and
    the others are still memoised; the call raises the first failure in
    order.  The batch is one checkpoint slot of the
    [missrate.l1-sweep] sweep task. *)

val simulate_stream :
  ?l1_assoc:int ->
  ?l2_assoc:int ->
  ?block:int ->
  ?policy:Nmcache_cachesim.Replacement.t ->
  ?warmup:bool ->
  stream:Nmcache_cachesim.Stream_trace.t ->
  l1_size:int ->
  l2_size:int ->
  unit ->
  point
(** {!simulate} over a chunked stream in O(chunk) memory: the access
    sequence and the warmup reset (at [warmup_fraction] of the
    stream's declared length — disable with [~warmup:false] for
    recorded traces) are identical, so for a stream wrapping a registry
    workload the rates are bitwise equal to {!simulate}'s at any chunk
    size.  Chunk boundaries are checkpoint slots when a journal is
    armed and the stream is keyed, so a killed run resumes
    byte-identically.  Not memoised. *)

type l2_curve = {
  workload : string;
  l1_size : int;
  l1_miss_rate : float;
  l2_sizes : int array;
  l2_local_rates : float array;
}

val l2_curve :
  ?l1_assoc:int ->
  ?block:int ->
  ?seed:int64 ->
  workload:string ->
  l1_size:int ->
  l2_sizes:int array ->
  n:int ->
  unit ->
  l2_curve
(** Single-pass L2 miss-ratio curve over the given sizes. *)

val averaged_l2_curve :
  ?l1_assoc:int ->
  ?block:int ->
  ?seed:int64 ->
  workloads:string list ->
  l1_size:int ->
  l2_sizes:int array ->
  n:int ->
  unit ->
  l2_curve
(** Arithmetic mean of per-workload curves — the paper's "results from
    various benchmark suites are collected".  The [workload] field is
    the concatenation of the names.  Raises [Invalid_argument] on an
    empty workload list. *)

type grid = {
  g_workloads : string list;
  g_l1_sizes : int array;
  g_l2_sizes : int array;
  g_averaged : l2_curve array;            (** averaged curve per L1 size, in order *)
  g_per_workload : l2_curve array array;  (** [g_per_workload.(i).(j)]: L1 size [i], workload [j] *)
}

val grid :
  ?l1_assoc:int ->
  ?block:int ->
  ?seed:int64 ->
  workloads:string list ->
  l1_sizes:int array ->
  l2_sizes:int array ->
  n:int ->
  unit ->
  grid
(** The whole L1×L2 design-space plane from one measured walk per
    workload: each walk builds the L1-filtered profile of every L1 size
    ({!Profile.build_many}), workloads fan out as one sweep slot each,
    and every L2 capacity is derived from the profiles' suffix CDFs.  The averaged curves agree bit-for-bit with
    {!averaged_l2_curve} on the same inputs.  Raises
    [Invalid_argument] on an empty workload list. *)

val l1_sweep :
  ?l1_assoc:int ->
  ?block:int ->
  ?policy:Nmcache_cachesim.Replacement.t ->
  ?seed:int64 ->
  workload:string ->
  l1_sizes:int array ->
  n:int ->
  unit ->
  float array
(** Local L1 miss rate per size (L1 miss rates don't depend on L2).
    For LRU the sweep is derived from one raw-trace profile with the
    {!Profile.setassoc_miss_rate} correction; other policies simulate
    every size directly in one {!simulate_many} walk (stack distances
    model LRU only). *)

val combined_workloads_key : string list -> string
(** Collision-free rendering of a workload list for memo/checkpoint
    keys: each name is length-prefixed before joining, so
    [["a+b"]] and [["a"; "b"]] can never alias. *)

val clear_cache : unit -> unit
(** Drop all memoised results, including profiles (tests use this to
    bound memory). *)
