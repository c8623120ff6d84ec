(** Process-wide metrics registry: counters, gauges and log-bucketed
    histograms, keyed by name.

    Instrumented hot paths (model fits, anneal moves, cache simulations,
    pool fan-outs) report here; [ppcache --metrics-json] and the bench
    report serialise a snapshot.  All operations are domain-safe — a
    single mutex guards the registry, which is fine because every call
    site is coarse (one update per fit / simulation / fan-out, never
    per cache access).

    Naming convention: dotted lowercase paths,
    [<subsystem>.<object>.<measure>] — e.g. [lm.leak.iterations],
    [anneal.accepted], [cachesim.accesses], [pool.fanout.tasks]. *)

val incr : ?by:int -> string -> unit
(** Bump a counter (creating it at 0 first).  [by] defaults to 1 and
    may be any integer. *)

val set_gauge : string -> float -> unit
(** Set a gauge to its latest value. *)

val observe : string -> float -> unit
(** Add a sample to a histogram (creating it empty first).  Buckets
    are logarithmic — 16 per decade, so quantile estimates carry at
    most ~7% relative error; non-positive samples share one underflow
    bucket valued 0. *)

val observe_n : string -> float -> count:int -> unit
(** [observe_n name v ~count] records [count] identical samples of [v]
    under one registry lock — the bulk path for flushing pre-aggregated
    histograms (e.g. Intmap probe lengths).  No-op when [count = 0];
    raises [Invalid_argument] when negative. *)

val counter_value : string -> int
(** Current value; 0 if the counter was never bumped. *)

val gauge_value : string -> float option

type histogram_summary = {
  count : int;
  sum : float;
  min : float;   (** 0 when [count = 0] *)
  max : float;
  p50 : float;   (** bucket-midpoint estimates; 0 when [count = 0] *)
  p90 : float;
  p99 : float;
}

val histogram_summary : string -> histogram_summary option

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_summary) list;
}

val snapshot : unit -> snapshot
(** Consistent view of every metric, each section sorted by name (the
    serialised form is deterministic given deterministic updates). *)

val to_json : unit -> Json.t
(** [{ "counters": {..}, "gauges": {..}, "histograms": {name:
    {count,sum,min,max,p50,p90,p99}} }], sorted by name. *)

val escape_label_value : string -> string
(** OpenMetrics label-value escaping: backslash, double-quote and
    newline become backslash-escaped two-character sequences. *)

val escape_help : string -> string
(** OpenMetrics HELP-text escaping: backslash and newline only. *)

val to_openmetrics : unit -> string
(** Render the registry snapshot in the Prometheus/OpenMetrics text
    exposition format, terminated by [# EOF].  Registry names become
    the [name] label of three fixed families: [ppcache_counter_total]
    (counter), [ppcache_gauge] (gauge) and [ppcache_histogram]
    (summary with quantile 0.5/0.9/0.99 series plus _sum/_count). *)

val reset : unit -> unit
