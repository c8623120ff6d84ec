(** Executable paper anchors: the claims of {!Core.Summary} as verify
    checks.  Each claim section runs behind its own {!Check.group} fault
    boundary named [anchor.<section>], and each verdict becomes one
    check named [anchor.<id>] that passes exactly when the verdict
    holds, with the verdict's evidence as its detail.  The claims, their
    conditions and their tolerances are defined in {!Core.Summary} only.
    Deterministic for a fixed context. *)

val section : Core.Context.t -> Core.Summary.section -> Check.t list

val all : Core.Context.t -> Check.t list
(** Every section of {!Core.Summary.sections}, in order. *)
