(** Live progress events: append-only NDJSON stream ([--events FILE])
    and/or human-readable progress lines on stderr ([--progress]).

    Events never touch stdout, so the byte-identity contract for
    result output holds at any [--jobs].  Each emitted line carries a
    monotonically increasing [seq] assigned under the sink lock;
    consumers order by sequence number, not wall clock, because slot
    completion order is scheduling-dependent under parallelism.

    Off by default; a disabled {!emit} costs one atomic load. *)

val schema_version : int
(** Event stream schema version (1). *)

type event =
  | Sweep_started of { name : string; total : int }
  | Slot_done of {
      name : string;
      index : int;  (** slot index within the fan-out *)
      completed : int;
          (** slots finished in this fan-out so far, including this
              one; within a fan-out it rises with [seq], 1 to [total] *)
      total : int;
      memo_hits : int;  (** cumulative across the run, not per-slot *)
      faults : int;
      retries : int;
    }
  | Checkpoint_replayed of { dir : string; replayed : int }
  | Experiment_done of { id : string }
  | Chunk_done of {
      stream : string;  (** stream name *)
      index : int;  (** chunk index within the stream, 0-based *)
      entries : int;  (** entries in this chunk *)
    }  (** a streamed-trace chunk finished simulating *)
  | Conn_opened of { id : int }
      (** a socket connection was accepted (id is the accept serial) *)
  | Conn_closed of { id : int; requests : int }
      (** a socket connection ended, having served [requests] lines *)
  | Conn_shed of { id : int }
      (** a connection was refused at the concurrency cap: one
          [overloaded] line, then close *)

val to_json : seq:int -> event -> Json.t
(** One NDJSON line: [{"seq":N,"event":"<kind>",...}]. *)

val render : event -> string
(** Human-readable one-line form used by [--progress]. *)

val set_file : string -> unit
(** Open [path] (truncating) as the NDJSON sink. *)

val set_progress : bool -> unit
(** Enable/disable progress lines on stderr. *)

val enabled : unit -> bool
(** True when any sink is armed — guard for call sites that would do
    work (counter reads, list lengths) just to build an event. *)

val emit : event -> unit
(** Assign a sequence number and write the event to every armed sink.
    No-op when disabled. *)

val close : unit -> unit
(** Flush and close the file sink, disable progress, reset the
    sequence counter. *)
