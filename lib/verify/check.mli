(** Verification checks: the atoms of [ppcache verify].

    A check is one executable claim — "the annealer matched the
    brute-force optimum within 5%", "m2 is non-increasing in L2 size" —
    with a deterministic name, a pass/fail/crashed status and a
    one-line detail that carries the measured numbers.  Groups of
    checks run behind a fault boundary: an exception inside a group
    does not abort the verify run, it records a typed
    {!Nmcache_engine.Fault} and settles the group as a single crashed
    check, so the report stays complete.

    Renderings are deterministic (no timestamps, canonical order from
    the callers), so a [--jobs 4] verify run prints byte-identically to
    a [--jobs 1] run — the CI gate diffs them. *)

type status = Pass | Fail | Crashed of Nmcache_engine.Fault.t

type t = {
  name : string;    (** dotted, stable: [oracle.scheme.brute-vs-pareto.I] *)
  status : status;
  detail : string;  (** measured values / tolerance, deterministic text *)
}

val pass : name:string -> string -> t
val fail : name:string -> string -> t

val check : name:string -> bool -> string -> t
(** [check ~name ok detail] is {!pass} or {!fail} on [ok]. *)

val within : name:string -> value:float -> reference:float -> rel_tol:float -> t
(** Relative-agreement helper: passes when
    [|value - reference| <= rel_tol * max |reference| eps]; the detail
    records all three numbers. *)

val group : name:string -> (unit -> t list) -> t list
(** Run a check group behind a fault boundary.  An escaping exception
    is classified by {!Nmcache_engine.Fault.of_exn} (stage
    [verify.<name>]), recorded in the process-wide fault log, and
    returned as one [Crashed] check named [<name>.crashed]. *)

val passed : t -> bool
val all_passed : t list -> bool

val render : t list -> string
(** One aligned line per check ([ok] / [FAIL] / [CRASH]), then a
    [verify: N checks, N failed, N crashed] summary line. *)

val to_json : t list -> Nmcache_engine.Json.t
(** [[{name, status, detail, fault?}]] — embedded in
    {!Nmcache_engine.Obs.verify_report}. *)
