(** Two-level cache hierarchy over a main memory.

    Inclusive-style L1 + L2: every access probes L1; L1 misses probe
    L2; L2 misses go to memory.  Dirty L1 victims are written back into
    L2 (counted as an L2 write access); dirty L2 victims are written
    back to memory.  This is the architectural simulation the paper's
    Section 5 relies on for miss-rate statistics.

    A hierarchy is a checked, named view of a {!Cache.pair}: the
    two-level step ({!Cache.step}) and the chunk loop {!run} live in
    {!Cache}, beside {!Cache.access}. *)

type t

type outcome = {
  l1_hit : bool;
  l2_hit : bool;        (** false when [l1_hit] (not probed) or L2 missed *)
  memory_access : bool; (** the access reached main memory *)
}

val create : l1:Cache.t -> l2:Cache.t -> t
(** Raises [Invalid_argument] if the L2 block size differs from L1's
    (refills would be ill-defined) or L2 is smaller than L1. *)

val access : t -> int -> write:bool -> outcome
(** One {!Cache.step}; allocates nothing. *)

val run : t -> int array -> int -> int -> unit
(** [run t entries pos len]: {!access} on each packed entry of
    [entries.(pos) .. entries.(pos + len - 1)] in order
    ({!Cache.run_pair}).  Raises [Invalid_argument] if the range is not
    inside [entries]. *)

val l1 : t -> Cache.t
val l2 : t -> Cache.t

val memory_reads : t -> int
(** Demand fetches, and write-backs that allocated in L2, that reached
    memory. *)

val memory_writes : t -> int
(** Write-backs that reached memory. *)

val l1_miss_rate : t -> float
(** Local L1 miss rate. *)

val l2_local_miss_rate : t -> float
(** L2 misses / L2 accesses. *)

val l2_global_miss_rate : t -> float
(** L2 misses / L1 accesses. *)
