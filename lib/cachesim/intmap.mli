(** Flat open-addressing int → int hash map for the simulator hot loops
    (cold-miss first-touch sets, Mattson last-access timestamps).

    Linear probing over two parallel [int array]s — no per-entry boxing,
    no bucket lists — with growth at 3/4 load.  Deletion is not
    supported (the simulators only insert and overwrite), which keeps
    probing tombstone-free.  Keys must be non-negative; [min_int] is the
    internal empty marker. *)

type t

val create : ?initial_capacity:int -> unit -> t
(** Capacity is rounded up to a power of two, minimum 16. *)

val length : t -> int
(** Number of distinct keys present. *)

val find : t -> int -> default:int -> int
(** Value bound to the key, or [default] if absent. *)

val mem : t -> int -> bool

val replace : t -> int -> int -> unit
(** Insert or overwrite.  Raises [Invalid_argument] on a negative key. *)

val exchange : t -> int -> int -> default:int -> int
(** [exchange t k v ~default] binds [k] to [v] and returns what [k]
    was bound to before, or [default] if it was absent: {!find} and
    {!replace} in one probe.  Raises [Invalid_argument] on a negative
    key. *)

val add_if_absent : t -> int -> bool
(** Insert the key (bound to 0) if absent and return [true]; return
    [false] if it was already present.  One probe for the common
    membership-then-insert pattern.  Raises [Invalid_argument] on a
    negative key. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over all bindings in unspecified order. *)

val map_values : (int -> int) -> t -> unit
(** Replace every bound value [v] by [f v], in place; no key is
    probed or counted. *)

val probe_hist_buckets : int
(** Number of probe-length buckets (17): index [i < 16] counts lookups
    that inspected [i] slots past the first (0 = direct hit), the last
    bucket aggregates 16 and beyond. *)

val drain_probe_hist : t -> int array
(** Return the per-map probe-length counts accumulated since creation
    (or the last drain) and zero them.  [grow]'s internal rehash does
    not count.  The profile layer drains this into the Metrics
    registry after each trace traversal. *)
