(** Process-wide parallelism knob.

    The executor holds the degree of parallelism sweeps use when no
    explicit pool is passed — the CLI's [--jobs N] lands here.  The
    default is 1 (fully sequential), so nothing in the repo changes
    behaviour unless parallelism is requested. *)

val set_jobs : int -> unit
(** Raises [Invalid_argument] if [jobs < 1]. *)

val get_jobs : unit -> int

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what a "use the hardware"
    caller ([--jobs 0]) should pass. *)

val pool : unit -> Pool.t
(** A pool of the current [jobs] width. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** Run with the knob temporarily set, restoring on exit. *)
