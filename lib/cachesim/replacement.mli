(** Replacement policies.

    The policy type is shared by every cache instance; per-set state is
    managed inside {!Cache}.  LRU is the paper's (implicit) baseline;
    the alternatives exist for the policy-sensitivity extension. *)

type t =
  | Lru            (** least recently used *)
  | Fifo           (** round-robin eviction *)
  | Random of int  (** pseudo-random victim, seeded for reproducibility *)
  | Plru           (** tree pseudo-LRU (ways must be a power of two) *)

val name : t -> string
val of_name : ?seed:int -> string -> t option
(** ["lru"], ["fifo"], ["random"], ["plru"]; [seed] (default 17) feeds
    [Random]. *)
