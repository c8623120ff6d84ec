(** The generic NDJSON serve loop: batched line-in/line-out request
    processing with fault isolation, bounded admission and graceful
    drain.

    The loop owns everything protocol-agnostic about [ppcache serve]:
    it reads request lines from a file descriptor (stdin or an
    accepted Unix-socket connection), gathers them into batches of at
    most [queue] lines (the bounded in-flight window — the reader
    never runs ahead of the workers, so a million-line pipe costs
    bounded memory), fans each batch across the domain pool, and
    answers without waiting for the window to fill: gathering blocks
    only for the first line of a batch, then takes whatever input is
    already available, so a lone query on an idle pipe or socket is
    answered immediately.  It
    writes one response line per request {e in request order},
    flushing per line so a killed server never leaves a torn response.
    What the lines mean is the caller's business ({!Core.Service}
    supplies the handler).

    Fault isolation is layered: the handler is expected to be total
    (it renders its own error responses), but if it nevertheless
    raises, the exception is classified by {!Fault.of_exn} at the
    request boundary and rendered by the caller's [crash_response] —
    one poisoned request can never take the loop down.

    Each handler result carries a [settle] thunk that the loop runs
    sequentially, in request order, after the batch completes — the
    deterministic seam where breaker updates and nearest-model indexes
    advance, so responses are byte-identical at any pool width.

    Drain: {!request_drain} (installed on SIGTERM/SIGINT by
    {!install_drain_signals}) makes the loop finish the in-flight
    batch, stop reading, and return with [drained = true].  A blocking
    read is interrupted by the signal (EINTR), so a drain never waits
    on input that will not come. *)

type stats = {
  requests : int;   (** lines read (including overlong rejects) *)
  responses : int;  (** lines written *)
  drained : bool;   (** the loop ended on a drain request, not EOF *)
}

type handler = line:string -> string * (unit -> unit)
(** [handler ~line] returns the response line (no trailing newline)
    and the settle thunk.  Must not block indefinitely; should not
    raise (raising is survivable but yields the generic crash
    response). *)

val max_line_bytes : int
(** Admission bound on a single request line (1 MiB).  Longer lines
    are discarded without buffering more than one chunk and answered
    with the caller's [overlong_response] — bounded memory whatever
    arrives on the wire. *)

(** {1 Bounded-memory line reader}

    The serve loop's hand-rolled reader over [Unix.read], exposed so
    other NDJSON consumers (the streaming trace engine's
    [--trace-stdin] source) share one reader with one memory bound:
    EINTR surfaces (a signal can interrupt a blocking read), lines
    longer than {!max_line_bytes} are discarded in bounded memory, and
    CRLF input is tolerated. *)

type reader

val make_reader : Unix.file_descr -> reader

type read_result =
  | Line of string  (** one complete line, newline and any CR stripped *)
  | Overlong        (** a line exceeded {!max_line_bytes}; it was discarded *)
  | Eof
  | Drained         (** a drain request interrupted the blocking read *)

val read_line : reader -> read_result

val request_drain : unit -> unit
(** Ask every serve loop in the process to finish its in-flight batch
    and stop.  Idempotent, async-signal-safe. *)

val drain_requested : unit -> bool
val reset_drain : unit -> unit

val install_drain_signals : unit -> unit
(** Route SIGTERM and SIGINT to {!request_drain}. *)

val inflight : unit -> int
(** Requests in the batches currently being processed, across every
    connection — the health query's in-flight gauge. *)

(** {1 Global admission limiter}

    Bounds the total in-flight request lines across every connection of
    a socket server.  Reservation grants as many slots as remain;
    requests beyond the grant are answered with the shed response
    instead of being buffered — overload produces explicit
    [overloaded] errors, never unbounded memory. *)

type limiter

val make_limiter : capacity:int -> limiter
(** [capacity] must be >= 1. *)

val serve :
  ?queue:int ->
  ?limiter:limiter ->
  ?shed_response:(unit -> string) ->
  ?dispatch_lock:Mutex.t ->
  pool:Pool.t ->
  handler:handler ->
  crash_response:(line:string -> Fault.t -> string) ->
  overlong_response:(unit -> string) ->
  input:Unix.file_descr ->
  output:out_channel ->
  unit ->
  stats
(** Run the loop until EOF or drain.  [queue] (default 64, must be
    >= 1) bounds both the read-ahead and the per-batch fan-out; it is
    independent of the pool width, so batch boundaries — and
    everything settled at them — do not depend on [--jobs].

    [limiter], when given, is the shared global admission bound:
    request lines beyond the grant are answered with [shed_response]
    (counted under [serve.shed]) in request order, so the response
    stream stays line-for-line even under shed.  [dispatch_lock], when
    given, is held around each pool fan-out — connection threads share
    one domain pool, whose in-worker marker is domain-local, so
    concurrent fan-outs must be serialized.  Solo runs (no limiter, or
    a limiter with capacity >= queue and no competing connections)
    never shed, which is what keeps per-connection streams
    byte-identical to solo runs.  Counters: [serve.requests],
    [serve.responses], [serve.overlong], [serve.shed]. *)

val check_socket_path : string -> bool
(** Whether [path] holds a stale socket, left by a dead server, that
    {!serve_unix_socket} replaces ([false]: nothing is there).  Raises
    [Invalid_argument] when anything else is at [path], which is not the
    server's to delete. *)

val serve_unix_socket :
  ?queue:int ->
  ?max_conns:int ->
  ?global_queue:int ->
  ?write_timeout:float ->
  pool:Pool.t ->
  handler:handler ->
  crash_response:(line:string -> Fault.t -> string) ->
  overlong_response:(unit -> string) ->
  shed_response:(unit -> string) ->
  path:string ->
  unit ->
  stats
(** Listen on a Unix domain socket at [path] and serve up to
    [max_conns] (default 4, >= 1) connections {e concurrently} — one
    thread per connection, each running {!serve} over its own bounded
    reader and queue — until a drain is requested.  A connection
    accepted at capacity is shed: one [shed_response] line, then close
    (counted under [serve.shed_conns], evented as [conn_shed]).
    [global_queue] (default [max_conns * queue]) caps total in-flight
    lines across connections via the shared limiter.  [write_timeout] (default 10 s;
    [<= 0.] disables) arms SO_SNDTIMEO on each client socket so a
    stalled reader drops only its own connection (counted under
    [serve.conn_dropped]); every client also carries a short
    SO_RCVTIMEO so blocked reads re-check the drain flag — a SIGTERM
    drains even with idle connections open.  Per-connection response
    streams are byte-identical to a solo run of the same request lines
    (the settle seam stays ordered within a connection); the gauge
    [serve.active_connections] and [conn_opened]/[conn_closed] events
    track the connection lifecycle.  Aggregated stats.

    A stale socket at [path] is replaced; any other file there raises
    [Invalid_argument] and is left in place.  On exit the socket is
    unlinked only if this call bound it. *)
