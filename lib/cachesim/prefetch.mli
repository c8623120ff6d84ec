(** Sequential (next-N-line) prefetching on top of an L1/L2
    {!Cache.pair}.

    On every L1 demand miss, the prefetcher issues the next [degree]
    blocks into L2 (prefetches never allocate into L1 and are not
    counted as demand accesses in the L2 statistics kept here).  This is
    the classic stream prefetcher the paper-era L2s shipped with; the
    extension experiments use it to test whether the L2-sizing
    conclusions survive prefetching. *)

type t

type outcome = private int
(** One immediate int per access (nothing is allocated); read it with
    {!l1_hit}, {!l2_hit} and {!prefetches_issued}. *)

val create : ?degree:int -> l1:Cache.t -> l2:Cache.t -> unit -> t
(** Pair the caches ({!Cache.pair}) under a prefetcher of the given
    [degree] (default 1, i.e. next-line).  Raises [Invalid_argument] if
    [degree < 0] or the caches are incompatible (see {!Cache.pair}). *)

val access : t -> int -> write:bool -> outcome

val run : t -> int array -> int -> int -> unit
(** [run t entries pos len] is {!access} on each packed entry
    ([addr lsl 1 lor write], the chunk layout of {!Stream_trace}) of
    [entries.(pos) .. entries.(pos + len - 1)], in order, in one loop
    with {!access} inlined.  Raises [Invalid_argument] if the range is
    not inside [entries]. *)

val l1_hit : outcome -> bool
(** The demand access hit in L1. *)

val l2_hit : outcome -> bool
(** The demand access missed L1 and hit in L2 (false when L1 hit). *)

val prefetches_issued : outcome -> int
(** Prefetch fills this access issued into L2. *)

val hierarchy : t -> Cache.pair
(** The pair the demand accesses run through. *)

val prefetches : t -> int
(** Total prefetch fills issued. *)

val useful_prefetches : t -> int
(** Prefetched blocks that were later demanded while still resident. *)

val accuracy : t -> float
(** useful / issued (0 when none were issued). *)

val demand_accesses : t -> int
(** Demand accesses that missed L1 and so reached L2, since creation
    or the last {!reset_demand}. *)

val demand_misses : t -> int
(** Of those, the ones that missed L2 too. *)

val reset_demand : t -> unit
(** Zero {!demand_accesses} and {!demand_misses}, as at the end of a
    warm-up; the prefetch counts behind {!accuracy} run on. *)
