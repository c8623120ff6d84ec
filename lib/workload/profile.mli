(** First-class stack-distance profiles: the "profile once, derive
    everywhere" layer.

    A profile is one measured traversal of a workload trace — either
    the raw access stream or the miss stream of a fixed L1 filter —
    reduced to its reuse-distance suffix CDF.  Every miss-rate query
    against the profile is then pure array arithmetic: exact for
    fully-associative LRU at any capacity, and corrected for
    set-associativity with a binomial model (oracle-checked to ≤ 0.03
    absolute miss rate by the [oracle.profile] verify group).

    Profiles are memoised process-wide by
    (workload, kind, block, seed, n) and are plain data, so keyed sweep
    tasks that build them are checkpoint-journalable like fitted
    models. *)

type kind =
  | Raw                                            (** profile the raw access stream *)
  | L1_filtered of { l1_size : int; l1_assoc : int }
      (** profile the miss stream of an LRU L1 of this shape *)

type t = {
  workload : string;
  kind : kind;
  block : int;           (** block size in bytes *)
  seed : int64;
  n : int;               (** trace length the profile was built from *)
  accesses : int;        (** measured accesses at the profiled stream *)
  cold : int;            (** measured first-touch accesses *)
  dists : int array;     (** ascending distinct reuse distances *)
  counts : int array;    (** warm accesses at exactly [dists.(i)] *)
  suffix : int array;    (** warm accesses at distance ≥ [dists.(i)] *)
  l1_miss_rate : float;  (** measured filter miss rate; [nan] for [Raw] *)
}

val key : workload:string -> kind:kind -> block:int -> seed:int64 -> n:int -> string
(** The memo key; names every input the profile depends on, the trace
    generation ({!Registry.generator_tag}) included, so it also serves
    as a checkpoint slot key. *)

val build_many :
  ?seed:int64 -> workload:string -> n:int -> (kind * int) list -> t list
(** [build_many ~workload ~n members] profiles each [(kind, block)]
    member of one trace, in order (default seed: the registry's).
    Each member is memoised under {!key}.  The members not memoised
    yet are built together in one {!Gen.walk}.  Each built profile
    counts one [cachesim.mattson_curves].  Each member passes the
    [simulate] fault point and retry boundary under its own key, so a
    fault fails that member alone: the others are still memoised, and
    the call raises the first member's failure in order. *)

val raw : ?block:int -> ?seed:int64 -> workload:string -> n:int -> unit -> t
(** Profile the raw access stream (defaults: 64 B blocks, registry
    seed): a one-member {!build_many}. *)

val l1_filtered :
  ?l1_assoc:int -> ?block:int -> ?seed:int64 -> workload:string -> l1_size:int ->
  n:int -> unit -> t
(** Profile the miss stream behind an LRU L1 filter (default 4-way). *)

val misses_at : t -> capacity_blocks:int -> int
(** Exact fully-associative LRU misses at this capacity: cold + warm
    accesses with distance ≥ capacity.  O(log |dists|).  Raises
    [Invalid_argument] if [capacity_blocks <= 0]. *)

val miss_rate_at : t -> capacity_blocks:int -> float
(** [misses_at] over measured accesses (0 if the profile is empty). *)

val curve : t -> capacities:int array -> float array
(** Vectorised {!miss_rate_at} — a whole miss-ratio curve without
    touching the trace. *)

val setassoc_miss_rate : t -> capacity_blocks:int -> assoc:int -> float
(** Expected miss rate of a set-associative LRU cache of this capacity:
    the d intervening blocks of each measured reuse scatter uniformly
    over S = capacity/assoc sets, so
    P(miss | d) = P(Binomial(d, 1/S) ≥ assoc).  Falls back to the exact
    stack condition when S ≤ 1 (fully associative), making the result
    exact there and monotone non-increasing in capacity everywhere. *)

val warmup_fraction : float
(** {!Gen.warmup_fraction}: the unmeasured warm-up prefix (0.5) that
    profiles share with direct simulation, so derived and simulated
    rates see the same steady-state window. *)

val clear_cache : unit -> unit
(** Drop all memoised profiles (tests use this to bound memory). *)
