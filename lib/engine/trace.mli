(** Per-stage observability for the execution engine.

    Every {!Sweep} fan-out and {!Task} run records a stage sample:
    call count, task count, busy time (summed kernel wall time) and
    elapsed wall time.  Memo caches record hit/miss counters.  The
    collected numbers render as a plain-text summary table — the data
    behind [ppcache run --trace] and perfbench's stage shares.

    Recording is always on (a mutex-protected table update per
    fan-out, nanoseconds against kernels that run for milliseconds);
    [reset] zeroes the tables, e.g. between timed comparisons. *)

type stage = {
  name : string;
  mutable calls : int;    (** fan-outs / task runs recorded *)
  mutable tasks : int;    (** total kernel evaluations *)
  mutable busy_s : float; (** Σ kernel wall time [s] *)
  mutable wall_s : float; (** Σ elapsed wall time [s] *)
}

type cache_counter = {
  cache : string;
  mutable hits : int;
  mutable misses : int;
}

val record : stage:string -> tasks:int -> busy_s:float -> wall_s:float -> unit

val with_stage : string -> (unit -> 'a) -> 'a
(** Time [f ()] as a single-task stage sample (records even if [f]
    raises). *)

val cache_hit : string -> unit
val cache_miss : string -> unit

val cache_stats : string -> int * int
(** [(hits, misses)] for a named cache; [(0, 0)] if never touched. *)

val stages : unit -> stage list
(** Snapshot in first-recorded order. *)

val cache_counters : unit -> cache_counter list

val reset : unit -> unit

val summary : unit -> string
(** Rendered summary: one table of stages and one of cache counters.
    Stages nest (an experiment's stage encloses its sweeps), so the
    table has no total row: the outermost stage is the total.  The
    speedup column is busy/wall — the average number of kernels in
    flight, which equals the real speedup when each worker keeps a
    core to itself (on an oversubscribed machine it reads as apparent
    concurrency instead).  Empty string when nothing was recorded. *)
