(** Single-pass LRU stack-distance (reuse-distance) profiling.

    Mattson's stack algorithm: for each access, the reuse distance is
    the number of {e distinct} blocks touched since the previous access
    to the same block.  A fully-associative LRU cache of capacity C
    blocks misses exactly the accesses whose distance ≥ C (plus cold
    misses), so one profiling pass yields the miss-ratio curve for
    {e every} capacity at once — how the workload library builds
    miss-rate tables efficiently.

    Implementation: a Fenwick tree over access timestamps that counts
    {e holes} (Almási, Caşcaval and Padua, MSP 2002).  A timestamp is a
    hole once its block has been accessed again; the others are the
    last accesses of distinct blocks.  The distance of an access whose
    block was last accessed at [prev] is therefore the timestamps after
    [prev] less the holes after it: one prefix walk, taken only while
    measuring, and one point update that makes [prev] a hole.  A first
    touch does no tree work.  The block → timestamp map is probed once
    per access ({!Intmap.exchange}).  When the timestamp space fills,
    compaction renumbers the live timestamps in order and zeroes the
    tree. *)

type t

val create : ?initial_capacity:int -> block_bytes:int -> unit -> t
(** [create ~block_bytes ()] profiles byte addresses at [block_bytes]
    granularity.  Raises [Invalid_argument] unless [block_bytes] is a
    power of two ≥ 8. *)

val access : t -> int -> unit
(** Record an access to a byte address. *)

val run : t -> int array -> int -> int -> unit
(** [run t entries pos len] is {!access} on the address of each packed
    entry ([addr lsl 1 lor write], the chunk layout of
    {!Stream_trace}) of [entries.(pos) .. entries.(pos + len - 1)], in
    order, in one loop with {!access} inlined.  Raises
    [Invalid_argument] if the range is not inside [entries]. *)

val set_measuring : t -> bool -> unit
(** While measuring is off (it starts on), accesses still update the
    LRU stack but are not counted — neither in the histogram nor as
    cold misses.  Turn it off for a cache-warming prefix so the curve
    reflects steady state rather than cold-start transients. *)

val accesses : t -> int
(** Measured accesses so far. *)

val distinct_blocks : t -> int
(** Number of distinct resident-tracked blocks (all time). *)

val cold_misses : t -> int
(** First-touch accesses during measurement. *)

val histogram : t -> (int * int) list
(** [(distance, count)] pairs, ascending distance, counting only
    finite-distance (warm) accesses. *)

val misses_at : t -> capacity_blocks:int -> int
(** Misses of a fully-associative LRU cache with the given capacity in
    blocks: measured cold misses + measured warm accesses with distance
    ≥ capacity.  Raises [Invalid_argument] if [capacity_blocks <= 0]. *)

val miss_rate_at : t -> capacity_blocks:int -> float

val cdf : t -> int array * int array
(** [(dists, suffix)]: ascending distinct reuse distances and, aligned
    with them, the number of warm accesses at that distance {e or
    greater}.  One O(|hist|) build answers any capacity query in
    O(log |hist|) via {!suffix_at} — the backing store for derived
    miss-rate curves. *)

val suffix_at : dists:int array -> suffix:int array -> int -> int
(** [suffix_at ~dists ~suffix c] is the number of warm accesses with
    reuse distance ≥ [c], given arrays from {!cdf} (binary search). *)

val miss_ratio_curve : t -> capacities:int array -> float array
(** Vectorised {!miss_rate_at}, answered from one {!cdf} build instead
    of one histogram fold per capacity.  Raises [Invalid_argument] on a
    capacity ≤ 0. *)

val drain_probe_hist : t -> int array
(** {!Intmap.drain_probe_hist} of the internal block → last-access
    map: probe-length counts since the last drain, then zeroed. *)
