(** Parallel, deterministic sweeps: evaluate one {!Task} over every
    element of a collection.

    Output order always equals input order, so for pure kernels the
    result — and anything rendered from it — is byte-identical
    whatever the [jobs] setting.  Each sweep records a {!Trace} stage
    sample (task count, busy time, wall time), fan-out metrics in
    {!Metrics} ([pool.fanouts], [pool.fanout.tasks],
    [pool.fanout.domains]) and — when {!Span} collection is enabled —
    a [sweep:<task>] span with one child span per kernel, re-parented
    across the domain boundary so the tree survives parallel
    execution. *)

val map_array : ?pool:Pool.t -> ('a, 'b) Task.t -> 'a array -> 'b array
(** Defaults to a pool of {!Executor.get_jobs} width. *)

val map_list : ?pool:Pool.t -> ('a, 'b) Task.t -> 'a list -> 'b list

val map_array_result :
  ?pool:Pool.t -> ('a, 'b) Task.t -> 'a array -> ('b, Fault.t) result array
(** Partial-result sweep: a failing kernel settles as [Error fault] in
    its own slot — classified by {!Fault.of_exn} under the task's name
    and appended to the {!Fault} log — while every other item still
    evaluates.  For kernels whose outcome is a pure function of their
    input (which {!Faultpoint} injection preserves by design) the
    result array is byte-identical whatever the [jobs] setting. *)

val map_list_result :
  ?pool:Pool.t -> ('a, 'b) Task.t -> 'a list -> ('b, Fault.t) result list

(** {1 Checkpoint journal}

    One process-wide {!Store} can be armed as the checkpoint journal
    ([ppcache run|verify|simulate --checkpoint DIR]).  While it is,
    every *keyed* slot ({!Task.make}'s [key]) of every sweep is looked
    up in the store's ["slot"] namespace under
    ["<task name>\x00<slot key>"] before it is computed, and stored
    after — only successes, so a faulted slot is recomputed on resume.
    Because slot keys encode every input the result depends on and
    results are served in slot order wherever they came from, a
    resumed run's output is byte-identical to an uninterrupted one at
    any [--jobs]. *)

val set_journal : Store.t option -> unit
(** Arm (or disarm, with [None]) the checkpoint journal.  Arming a store
    that replayed records counts them under [checkpoint.replayed] and
    emits a [checkpoint_replayed] event; a truncated corrupt tail
    counts under [checkpoint.dropped]. *)

val journal_armed : unit -> bool
(** Whether a journal is armed; check it before rendering a slot key,
    so unjournaled runs never build one. *)

val journaled : key:string -> (unit -> 'a) -> 'a
(** [journaled ~key f] is [f ()] when no journal is armed.  Otherwise it
    is the value journaled under [key] in the ["slot"] namespace
    (counted under [checkpoint.served]), or else [f ()], journaled
    under [key] before it is returned (counted under
    [checkpoint.appended] when this call wrote the record).  An
    exception from [f] journals nothing.  Unsafe at the wrong type,
    like [Marshal]: the key must name its producer, as
    ["<task>\x00<slot>"] and ["stream\x00..."] keys do. *)
