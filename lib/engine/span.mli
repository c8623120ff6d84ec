(** Span-tree tracing: nested, attributed, domain-safe timing spans,
    exportable as Chrome [trace_event] JSON (loadable in Perfetto /
    [chrome://tracing]).

    A span is one timed region.  Spans nest: each domain keeps its own
    span stack, so [with_span] inside [with_span] records a
    parent/child edge; {!Sweep} propagates the parent across the
    domain boundary of a fan-out, so kernels running on worker domains
    still hang off the fan-out span that launched them.

    Recording is off by default — a disabled [with_span] is one atomic
    load and a direct call of [f], so instrumentation can stay in hot
    paths permanently.  [set_enabled true] stamps the trace epoch and
    starts collecting; the CLI's [--trace-json] and perfbench's traced
    runs turn it on.

    Span output is inherently timing-dependent, so it is written to a
    side file and deliberately excluded from the byte-identical
    determinism gate on experiment output.

    Naming convention: [<layer>:<object>] — [experiment:fig1],
    [sweep:missrate.l2-curve], kernel spans carry the task name plus
    an [index] attribute. *)

type span = {
  id : int;                           (** unique, process-wide *)
  parent : int option;                (** enclosing span, if any *)
  name : string;
  tid : int;                          (** domain id the span ran on *)
  ts_us : float;                      (** start, µs since the trace epoch *)
  dur_us : float;
  attrs : (string * Json.t) list;
}

val set_enabled : bool -> unit
(** Enabling resets collected spans and restarts the epoch. *)

val enabled : unit -> bool

val with_span : ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** Run [f] inside a span (recorded even if [f] raises).  No-op wrapper
    when disabled.  Every recorded span additionally carries
    [minor_words]: the exact words [f] allocated on the calling domain,
    read from [Gc.minor_words] at the span's two edges.  A traced span
    allocates 34 words of its own on OCaml 5.1. *)

val current_id : unit -> int option
(** Innermost open span on the calling domain. *)

val with_parent : int option -> (unit -> 'a) -> 'a
(** Run [f] with its span-stack rooted at an explicit parent — the
    cross-domain handoff used by {!Sweep} fan-outs. *)

val spans : unit -> span list
(** Completed spans sorted by (start time, id). *)

val reset : unit -> unit

val to_chrome_json : unit -> Json.t
(** [{"schema_version": .., "traceEvents": [..]}] — complete ("ph":"X")
    events carrying [pid]/[tid]/[ts]/[dur], with [span_id]/[parent_id]
    and the user attributes under ["args"]. *)

val schema_version : int
