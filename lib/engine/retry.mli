(** Per-stage retry of transient faults.

    Transient faults — a {!Faultpoint} chaos hit, a fit left unconverged
    by an unlucky start — deserve another attempt at the boundary that
    understands them ([fit.*], [anneal], [simulate]) before being
    recorded as casualties.  Only [Injected] and [Fit_diverged] faults
    are retried; everything else (singular systems, domain errors,
    crashes, deadlines) is deterministic and fails identically on every
    attempt.  The retried kernels run in-process, so the next attempt
    starts at once, and a chaos run's outcome depends only on its
    fault spec and the attempt budget. *)

val default_max_attempts : int
(** 3: the process-wide attempt budget until {!set_max_attempts}. *)

val set_max_attempts : int -> unit
(** Set the attempt budget ([ppcache run --retries N]); [1] disables
    retries entirely.  Raises [Invalid_argument] below 1. *)

val reset : unit -> unit
(** Back to {!default_max_attempts}. *)

val run : stage:string -> (attempt:int -> last:bool -> 'a) -> 'a
(** [run ~stage f] evaluates [f ~attempt:1 ~last] and, each time it
    raises a retryable {!Fault.Fault} with attempts left, re-evaluates
    it with the next [attempt].  [last] tells the kernel it is on its
    final attempt — the fitter uses it to degrade gracefully
    (record-and-return) instead of raising.  Non-retryable faults and
    non-fault exceptions propagate immediately.  Counters: [retry.attempts],
    [retry.recovered], [retry.exhausted] (plus [.<stage>] variants). *)
