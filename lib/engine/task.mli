(** A named pure kernel: the unit of work the engine schedules.

    Separating the kernel (input -> output, no printing, no shared
    mutable state beyond {!Memo} caches) from reporting is what lets
    {!Sweep} fan evaluations across domains while keeping artefact
    output byte-identical to a sequential run. *)

type ('a, 'b) t

val make : name:string -> ?key:('a -> string) -> ('a -> 'b) -> ('a, 'b) t
(** [name] labels the stage in {!Trace} summaries.

    [key], when given, renders a slot input to a stable string
    identifying the computation — same key, same result.  Keyed tasks
    are the unit of checkpoint journaling ({!Sweep.set_journal}):
    {!Sweep} serves a journaled slot instead of recomputing it and
    journals fresh results.  Keys must be unique per distinct input and must encode
    everything the result depends on (context parameters included);
    unkeyed tasks are never journaled. *)

val name : ('a, 'b) t -> string

val kernel : ('a, 'b) t -> 'a -> 'b
(** The raw kernel, untraced. *)

val slot_key : ('a, 'b) t -> 'a -> string option
(** The checkpoint key for one slot input, if the task is keyed. *)
