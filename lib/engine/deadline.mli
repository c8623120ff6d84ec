(** Cooperative kernel deadlines: poll-based cancellation tokens.

    A wedged kernel must become a typed fault, not a hung pool.  Since
    OCaml domains cannot be killed safely, cancellation is cooperative:
    the engine arms a per-domain budget token around every sweep slot
    ({!with_root}, driven by the process default from [ppcache run
    --deadline S]), and long-running kernels poll it at their loop
    seams — the fitter's Gauss–Newton iterations, annealer steps,
    cachesim replay batches.  An expired {!poll} raises a
    [Fault.Timed_out] fault that the sweep's result boundary settles
    into that slot, so the pool always drains and the run reports the
    casualty like any other fault.

    The token lives in domain-local storage, so each pool worker carries
    its own; nested sweeps (which run sequentially on the worker's
    domain) inherit the enclosing kernel's budget rather than restarting
    it.  The fault detail mentions only the configured budget — never
    elapsed time — so output stays byte-stable when a deadline fires. *)

val set_default : float option -> unit
(** Process-wide budget (seconds) armed at every sweep-slot root; [None]
    (the initial state) runs kernels unbounded.  A budget of [0.0] makes
    the first poll fire — the deterministic setting used in tests.
    Raises [Invalid_argument] on a negative budget. *)

val default : unit -> float option

val with_budget : budget_s:float -> (unit -> 'a) -> 'a
(** Run [f] with this domain's token armed to expire [budget_s] seconds
    from now; restores the previous token state on exit (nesting
    narrows, never extends). *)

val with_root : (unit -> 'a) -> 'a
(** Arm the process default budget around a sweep-slot kernel — a nop
    when no default is set or when this domain's token is already armed
    (a nested sweep inside a budgeted kernel). *)

val armed : unit -> bool
(** Whether this domain currently carries an armed token. *)

val expired : unit -> bool
(** Whether an armed token has expired, without raising. *)

val poll : stage:string -> unit
(** The cancellation point: raise [Fault.Timed_out] at [stage] (and
    count [deadline.fired]) if this domain's token has expired; a cheap
    nop otherwise.  Call it every few thousand loop iterations — often
    enough to bound overrun, rarely enough to stay off the profile. *)
