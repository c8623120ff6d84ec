(** Content-keyed, domain-safe memo cache for expensive intermediates
    (fitted cache models, simulated miss curves).

    Keys are strings describing everything a value depends on; the
    compute function must be a pure function of that key.  Lookup and
    insertion are mutex-protected so concurrent sweep workers can share
    one cache, and in-flight computations are deduplicated: a domain
    that requests a key another domain is already computing blocks on a
    condition variable until the value settles, instead of redoing the
    work (if the computation raises, its pending marker is dropped and
    one waiter retries).  Hits and misses are counted under the cache's
    name in {!Trace}; a waiter that received a settled value counts as
    a hit. *)

type 'v t

val create : name:string -> ?size:int -> unit -> 'v t

val name : 'v t -> string

val find_or_compute : 'v t -> string -> (unit -> 'v) -> 'v

val find_or_compute_many :
  ('v t * string) array -> (int array -> ('v, exn) result array) -> ('v, exn) result array
(** [find_or_compute_many members compute] memoises a batch of
    [(table, key)] members that are cheaper to compute together, such
    as several caches fed by one trace walk.  Each table's members are
    looked up in one critical section.  A settled key counts as a hit.
    An absent key is claimed as pending and counts as a miss.
    [compute claimed] then runs once on the indices of the claimed
    members, in ascending order, and returns one result per index.
    [Ok] values are published.  An [Error] fails its member alone and
    drops its pending marker.  If [compute] raises, every marker this
    call claimed is dropped and the exception propagates.  Keys another
    domain holds pending are awaited after the compute; where their
    owner failed, [compute] runs again on that one index.  Returns one
    result per member, in order. *)

val clear : 'v t -> unit
(** Drop all entries (counters in {!Trace} are left untouched). *)

val length : 'v t -> int

val stats : 'v t -> int * int
(** [(hits, misses)] recorded for this cache since the last
    {!Trace.reset}. *)
