(** Experiment registry: every table and figure the reproduction
    regenerates, addressable by id for the CLI and perfbench. *)

type t = {
  id : string;          (** e.g. ["fig1"] *)
  title : string;
  paper_ref : string;   (** where in the paper the artefact lives *)
  run : Context.t -> Report.artefact list;
}

val all : t list
(** Paper artefacts first (fig1, schemes, l2sweep, l2sweep2, l1sweep,
    fig2), then extensions (ablate-knobs, ablate-temp, ablate-policy,
    fig2-workloads, fitcheck). *)

val paper : t list
(** Only the six paper artefacts. *)

val find : string -> t option

val ids : string list

val run_many : Context.t -> t list -> (t * Report.artefact list) list
(** Evaluate every experiment kernel through the engine (parallel when
    {!Nmcache_engine.Executor} has [jobs > 1], sequential otherwise)
    and return artefacts in registry order — experiments are data, so a
    parallel run renders byte-identically to a sequential one.
    Fail-fast: the first kernel exception aborts the run (after every
    in-flight domain joins) and re-raises. *)

val run_many_result :
  Context.t ->
  t list ->
  (t * (Report.artefact list, Nmcache_engine.Fault.t) result) list
(** Partial-result variant: a failing experiment settles as [Error]
    with its typed fault (recorded in the {!Nmcache_engine.Fault} log)
    while the remaining experiments complete.  Same ordering and
    byte-determinism guarantees as {!run_many}; fault injection via
    the [experiment] fault point (keyed by experiment id) preserves
    them, because injection decisions are key-deterministic. *)
