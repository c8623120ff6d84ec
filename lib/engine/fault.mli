(** Typed faults: the diagnostic currency of the fault-tolerant engine.

    The numeric pipeline chains fragile stages — compact-model fits,
    annealed searches, long simulations — whose failures are expected
    inputs, not programming errors: an ill-conditioned fit at a corner
    of the (Vth, Tox) grid should surface as data, never abort a
    10-experiment run.  A [Fault.t] names what went wrong ([kind]),
    where ([stage], a fault-point or stage name) and with which inputs
    ([detail], deterministic text so parallel runs report identical
    faults).

    Faults travel as the [Fault] exception until a stage boundary
    ({!Sweep.map_array_result}, [Experiments.run_many_result]) converts
    them to per-item [Error] values.  Recorded faults accumulate in a
    process-wide, domain-safe log that {!Obs} serialises into the run
    report. *)

type kind =
  | Fit_diverged      (** fit still unconverged after its retries *)
  | Singular_system   (** linear solve hit a singular system *)
  | Non_finite        (** NaN/Inf in inputs or results *)
  | Out_of_domain     (** model evaluated outside its fitted range *)
  | Injected          (** deterministic {!Faultpoint} injection *)
  | Crashed           (** unclassified exception at a stage boundary *)
  | Timed_out         (** kernel exceeded its {!Deadline} budget *)

type t = {
  kind : kind;
  stage : string;   (** fault point / stage name, dotted lowercase *)
  detail : string;  (** deterministic description (inputs, key, message) *)
}

exception Fault of t

val make : kind:kind -> stage:string -> string -> t
val error : kind:kind -> stage:string -> string -> 'a
(** [error ~kind ~stage detail] raises {!Fault}. *)

val kind_name : kind -> string
(** Stable lowercase identifier ([fit_diverged], [injected], …) used in
    JSON and fault-injection specs. *)

val kind_of_name : string -> kind option

val to_string : t -> string
(** [[kind] stage: detail] — the deterministic one-line rendering used
    in CLI fault output. *)

val to_json : t -> Json.t
val of_json : Json.t -> t option

val of_exn : stage:string -> exn -> t
(** Classify an exception caught at a stage boundary: a {!Fault} passes
    through unchanged, anything else becomes [Crashed]. *)

val compare : t -> t -> int
(** Order by (stage, kind, detail) — the canonical report order, so
    fault reports are byte-identical whatever the execution order. *)

(* -- process-wide fault log (domain-safe) --------------------------- *)

val record : t -> unit
(** Append to the log and bump the [faults.recorded] counter. *)

val recorded : unit -> t list
(** Snapshot in record order (use {!compare} for a canonical order). *)

val reset : unit -> unit
