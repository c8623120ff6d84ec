(** Advisory single-writer lock files for on-disk journals.

    {!Store} journals (the persistent model store and run checkpoints)
    are append-only files with per-record CRCs: corruption-tolerant
    against crashes, but defenceless against two live processes
    interleaving appends into the same file.  A lock file makes that failure mode
    loud: {!acquire} creates [<target>.lock] with [O_CREAT | O_EXCL]
    and writes the owner's PID into it, so a second process armed on
    the same journal fails fast (the CLI maps {!Locked} to exit 2)
    instead of silently corrupting records.

    Stale locks are self-healing: a SIGKILLed owner leaves its lock
    file behind, but its PID is dead, so the next {!acquire} detects
    the stale owner ([kill pid 0] raising [ESRCH]), breaks the lock and
    retries.  A PID that is merely unverifiable (permission errors) is
    treated as live — false "locked" beats false "stale".

    Breaking is rename-based, not unlink-based: the breaker atomically
    renames the stale file to a tombstone unique to itself, so of N
    processes racing to break the same dead lock exactly one wins (the
    others' renames fail with [ENOENT] and retry against whatever lock
    exists next).  The winner re-validates the tombstoned PID before
    discarding it; a live lock that slipped into the window is handed
    back and reported as {!Locked}.  The naive unlink protocol is a
    double-acquire TOCTOU: the second breaker's [unlink] can hit the
    first breaker's fresh lock. *)

exception Locked of { path : string; pid : int }
(** The lock at [path] is held by a live process [pid]. *)

type t

val acquire : path:string -> t
(** Take the lock file at [path] (conventionally [<journal>.lock]),
    writing this process's PID into it.  Raises {!Locked} when a live
    process holds it — including this process itself: one journal
    handle per directory, even in-process.  A lock file naming a dead
    PID is removed and re-acquired (counted under [lock.stale_broken]).
    Raises [Unix.Unix_error] on filesystem failures. *)

val release : t -> unit
(** Remove the lock file.  Idempotent; never raises (a lock directory
    deleted behind our back is already unlocked). *)

val path : t -> string

val holder_pid : path:string -> int option
(** The PID recorded in the lock file at [path], if it exists and
    parses — exposed for tests and diagnostics. *)

val stale_break_hook : (unit -> unit) ref
(** Test seam: called after a stale lock has been observed, before the
    tombstone rename — the TOCTOU window.  The two-process regression
    test stalls here; production leaves the default no-op. *)
