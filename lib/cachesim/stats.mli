(** Access counters for one cache level. *)

type t = {
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable read_accesses : int;
  mutable write_accesses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable cold_misses : int;  (** misses to never-before-seen blocks *)
}

val create : unit -> t
val reset : t -> unit

val miss_rate : t -> float
(** misses / accesses; 0 when there were no accesses. *)

val hit_rate : t -> float

val flush_to_metrics : prefix:string -> t -> unit
(** Add every non-zero counter to the {!Nmcache_engine.Metrics}
    registry as [<prefix>.accesses], [<prefix>.misses], … — called
    once per finished simulation so per-access bookkeeping never takes
    the registry lock. *)

val pp : Format.formatter -> t -> unit
