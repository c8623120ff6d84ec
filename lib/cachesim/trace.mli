(** Recorded address traces: capture, replay, and summary statistics.

    Generators are cheap to re-run, but a materialised trace is useful
    for (a) replaying the identical stream through different cache
    configurations, (b) characterising a workload (footprint, write
    fraction, sequentiality) and (c) regression-testing generators
    against golden numbers. *)

type entry = {
  addr : int;
  write : bool;
}

type t
(** An immutable recorded trace. *)

val of_entries : entry array -> t
(** Wrap an array (copied). *)

val record : next:(unit -> entry) -> n:int -> t
(** Pull [n] entries from a producer.  Raises [Invalid_argument] if
    [n < 0]. *)

val length : t -> int
val get : t -> int -> entry
val iter : t -> (entry -> unit) -> unit

val replay : t -> Cache.t -> unit
(** Run every entry through a cache (statistics accumulate in the
    cache). *)

val replay_hierarchy : t -> Cache.pair -> unit
(** Run every entry through an L1/L2 pair, one {!Cache.step} each. *)

type stats = {
  accesses : int;
  writes : int;
  distinct_blocks : int;   (** at 64-byte granularity *)
  footprint_bytes : int;   (** distinct blocks × 64 *)
  sequential_fraction : float;
      (** fraction of accesses whose address is within +64 bytes of the
          previous access *)
}

val analyze : t -> stats
(** Single pass summary.  Raises [Invalid_argument] on an empty
    trace. *)

val zero_stats : stats
(** The defined answer for an empty stream: all counters 0,
    [sequential_fraction] 0.0.  {!Stream_trace.analyze} returns it
    instead of raising like {!analyze}. *)

(** {1 Incremental analysis}

    The streaming engine computes {!stats} over traces that are never
    materialised; the analyzer is the incremental form of {!analyze}
    (O(footprint) memory — the distinct-block set, an {!Intmap} —
    independent of trace length).  [analyze] itself is one fold over
    it. *)

type analyzer

val analyzer : unit -> analyzer
val feed_analyzer : analyzer -> int -> bool -> unit
(** [feed_analyzer a addr write] counts one access. *)

val analyzer_stats : analyzer -> stats
(** Summary of everything fed so far; {!zero_stats} when nothing was
    (total, unlike {!analyze}). *)

val pp_stats : Format.formatter -> stats -> unit
