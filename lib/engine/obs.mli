(** Machine-readable run reports: assembly and file output for the
    observability layer.

    Pulls the three collectors together — {!Span} (span tree),
    {!Metrics} (counters / gauges / histograms) and {!Trace} (flat
    stage table + memo counters) — into versioned JSON documents.
    [ppcache … --trace-json F --metrics-json F] are thin wrappers over
    this module. *)

val metrics_schema_version : int
(** Bumped whenever a field is added or reshaped (policy in README
    "Robustness & fault injection"); v2 added the ["faults"] list, v3
    the ["resilience"] section, v4 the ["resource"] section. *)

val verify_schema_version : int
(** Schema of the verification report written by [ppcache verify
    --report-json]. *)

val metrics_report : unit -> Json.t
(** [{ "schema_version"; "metrics": {counters,gauges,histograms};
    "stages": [{name,calls,tasks,busy_s,wall_s}];
    "memo": [{name,hits,misses,hit_rate}];
    "faults": [{kind,stage,detail}]; "resilience": {..};
    "resource": {..} }] — stages and memo tables mirror
    {!Trace.summary} in machine-readable form; faults are the {!Fault}
    log in canonical order; resource is the process's wall time since
    start and its GC totals from one [Gc.quick_stat]: words allocated
    (minor, promoted, major, total), collection counts, and current and
    peak major-heap words.  The runtime does not expose time spent in
    the collector, so counts stand in for it. *)

val verify_report : checks:Json.t -> Json.t
(** [{ "schema_version"; "checks"; "faults" }] — wraps a verification
    subsystem's rendered check list with the report version and the
    fault log, so a crashed check's typed fault travels in the same
    document as its [crashed] status. *)

val faults_json : unit -> Json.t
(** Recorded faults sorted by {!Fault.compare}, so the report bytes do
    not depend on domain scheduling. *)

val resilience_json : unit -> Json.t
(** [{ "retries": {attempts,recovered,exhausted}; "checkpoint":
    {replayed,served,appended,dropped_tails}; "deadline": {fired} }] —
    the resilience layer's counters, embedded in the metrics report. *)

val write_text : path:string -> string -> unit
(** Atomic file write: the document goes to [path ^ ".tmp"], then a
    rename replaces [path] in one step — a killed run can leave a
    stale [.tmp] behind but never a truncated report. *)

val write_json : path:string -> Json.t -> unit
(** Pretty-printed, trailing newline; atomic via {!write_text}. *)

val write_metrics : path:string -> unit
(** {!metrics_report} to [path]. *)

val write_trace : path:string -> unit
(** {!Span.to_chrome_json} to [path] — open in Perfetto
    ([ui.perfetto.dev]) or [chrome://tracing]. *)

val write_openmetrics : path:string -> unit
(** {!Metrics.to_openmetrics} to [path] — the Prometheus text
    exposition snapshot behind [--metrics-prom]. *)
