(** A set-associative cache with pluggable replacement.

    The model is storage-only (tags, validity, dirtiness); data values
    are never simulated.  Writes are write-back / write-allocate, the
    usual configuration for the caches the paper studies. *)

type t

type outcome = private int
(** What one {!access} did, packed into an immediate so the access path
    allocates nothing.  Read it through {!hit}, {!victim} and
    {!victim_dirty}; the encoding is private to this module. *)

val create :
  size_bytes:int ->
  assoc:int ->
  block_bytes:int ->
  policy:Replacement.t ->
  unit ->
  t
(** Raises [Invalid_argument] unless sizes are powers of two,
    [assoc >= 1], [block_bytes >= 8], and capacity holds at least one
    set; PLRU additionally requires power-of-two associativity. *)

val size_bytes : t -> int
val assoc : t -> int
val block_bytes : t -> int

val block_shift : t -> int
(** log2 of {!block_bytes}: a byte address's block number is
    [addr lsr block_shift t]. *)

val sets : t -> int
val policy : t -> Replacement.t
val stats : t -> Stats.t

val access : t -> int -> write:bool -> outcome
(** Look up the byte address; on a miss the block is installed and a
    victim (possibly) evicted.  Updates statistics. *)

val hit : outcome -> bool
(** The block was resident. *)

val victim : outcome -> int
(** The block number a miss evicted, or [-1] when nothing was evicted
    (a hit, or a miss that filled an invalid way).  Block numbers are
    never negative. *)

val victim_dirty : outcome -> bool
(** The eviction caused a write-back; [false] when {!victim} is [-1]. *)

(** {1 Chunk kernels}

    Loops that run a range of packed entries — one immediate per
    access, [addr lsl 1 lor write], the chunk layout of
    {!Stream_trace} — through one cache or an L1/L2 pair.  Every
    access stays inside this module, so a replayed access makes no
    cross-module call.  Each is exactly the per-access calls it
    replaces: same statistics, same memory counters, bit for bit. *)

val run : t -> int array -> int -> int -> unit
(** [run t entries pos len] is {!access} on each of
    [entries.(pos) .. entries.(pos + len - 1)], in order.  Raises
    [Invalid_argument] if the range is not inside [entries]. *)

val run_misses : t -> int array -> int -> int -> into:int array -> int
(** [run_misses t entries pos len ~into] is {!run} that also copies
    the entries that missed, in order, to [into.(0) .. into.(m - 1)],
    and returns their count [m]: the miss stream of an L1 filter.
    [into] is scratch: the slots from [m] up to [len - 1] may be
    overwritten too.  Raises [Invalid_argument] if the range is not
    inside [entries] or [into] is shorter than [len]. *)

type pair = private {
  l1 : t;
  l2 : t;
  mutable memory_reads : int;  (** demand fetches and write-back fills that reached memory *)
  mutable memory_writes : int;  (** dirty L2 victims written to memory *)
}
(** An L1 over an L2 over main memory: the state {!step} moves.
    Every access probes the L1; an L1 miss probes the L2, and an L2
    miss goes to memory.  This is the architectural simulation the
    paper's Section 5 takes its miss rates from. *)

val pair : l1:t -> l2:t -> pair
(** A pair with zeroed memory counters.  Raises [Invalid_argument] if
    the L2's block size differs from the L1's (refills would be
    ill-defined) or the L2 is smaller than the L1. *)

val step : pair -> int -> write:bool -> int
(** One access through the pair: the L1 access; on a miss, a dirty L1
    victim written into L2 (at its block number shifted by the L1's
    block size), then the demand fetch from L2.  A write-back that
    misses L2 counts a memory read (the allocation fetches the line);
    every dirty L2 victim counts a memory write, and a demand that
    misses L2 a memory read.  Returns the level that served the
    demand: [0] L1, [1] L2, [2] memory. *)

val run_pair : pair -> int array -> int -> int -> unit
(** [run_pair p entries pos len] is {!step} on each of
    [entries.(pos) .. entries.(pos + len - 1)], in order.  Raises
    [Invalid_argument] if the range is not inside [entries]. *)

val l2_global_miss_rate : pair -> float
(** L2 misses over L1 accesses (0 before any access).  The local rates
    are each level's own {!Stats.miss_rate}. *)

val contains : t -> int -> bool
(** Whether the block holding this byte address is currently resident
    (no statistics side effects, no recency update). *)

val reset_stats : t -> unit

val valid_blocks : t -> int list
(** Block numbers currently resident (unordered); for tests. *)

val first_touch_words : t -> int
(** Heap words held by the first-touch set behind
    [Stats.cold_misses]: one bit per block number, in 32-byte pages
    found through an {!Intmap} page directory.  For tests and sizing. *)

val drain_probe_hist : t -> int array
(** {!Intmap.drain_probe_hist} of the first-touch set's page directory:
    probe-length counts since the last drain, then zeroed.  Misses
    within the page the previous miss used skip the directory and are
    not counted. *)
