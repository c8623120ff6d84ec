(** Named fault points with deterministic, seeded injection.

    Kernels declare where they can fail — [hit ~point ~key] at the top
    of a fit, a simulation, an anneal — and a chaos harness arms a
    subset of those points via a spec string ([PPCACHE_FAULTS]).  An
    armed hit raises {!Fault.Fault} with kind [Injected],
    [stage = point] and [detail = key].

    Determinism is the design constraint: whether a hit fires is a pure
    function of [(seed, point, key)] — a hash draw, never global hit
    order — so a parallel run injects exactly the same faults as a
    sequential one and the surviving output stays byte-identical
    whatever [--jobs] is.

    Spec grammar (comma-separated entries):
    - [point]        — every hit of [point] fires;
    - [point:P]      — fires for the fraction [P] of keys selected by
                       the seeded hash draw (per-key, not per-hit);
    - [point=KEY]    — fires only when [key] equals [KEY] exactly;
    - [seed:N]       — seeds the hash draw (default 0).

    Example: [PPCACHE_FAULTS="experiment=schemes,fit.leak:0.25,seed:7"]. *)

val configure : string -> (unit, string) result
(** Parse a spec and arm it process-wide; [Error msg] leaves the
    previous configuration in place. *)

val configure_from_env : unit -> (bool, string) result
(** Arm from [$PPCACHE_FAULTS] if set and non-empty; [Ok true] when a
    spec was armed. *)

val clear : unit -> unit
(** Disarm every fault point. *)

val active : unit -> bool
val spec : unit -> string option

val should_fire : ?attempt:int -> point:string -> key:string -> unit -> bool
(** The injection decision, without raising — exposed for tests.

    [attempt] (default 1) is the {!Retry} attempt number evaluating the
    hit, and selects each arm's transience model: [Always] arms fire on
    every attempt (permanent faults a retry can never mask), [point=KEY]
    arms fire on attempt 1 only (targeted transients a retry boundary
    recovers), and [point:P] arms redraw per attempt — attempt [N > 1]
    draws with the effective key ["KEY#aN"], so attempt 1 stays
    byte-compatible with the attemptless draw. *)

val hit : ?attempt:int -> point:string -> key:string -> unit -> unit
(** Raise an [Injected] {!Fault.Fault} if [(point, key)] is armed and
    selected on this [attempt]; count it under [faults.injected].  A
    nop (one atomic load) when nothing is configured. *)

val env_var : string
(** ["PPCACHE_FAULTS"]. *)
