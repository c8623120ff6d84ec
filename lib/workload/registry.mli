(** Named workload registry used by experiments and the CLI. *)

type entry = {
  name : string;
  description : string;
  build : int64 -> Gen.t;  (** seed ↦ generator *)
}

val all : entry list
(** The benchmark stand-ins: spec2000-{mix,gcc,mcf,art,phased}, specweb,
    tpcc. *)

val find : string -> entry option
val names : string list

val default_seed : int64
(** Seed used by every experiment unless overridden (42). *)

val generator_tag : string
(** The trace generation ([ri1]: Zipf popularity drawn by
    rejection-inversion).  Every key that names a generated trace by
    (workload, seed, n) carries it too: {!Missrate}'s memo and slot
    keys, {!Profile.key}, {!Stream.of_workload}'s stream key and the
    context fingerprint.  It changes with every change that moves a
    generated trace. *)

val build : ?seed:int64 -> string -> Gen.t
(** [build name] instantiates a registered workload.  Raises
    [Invalid_argument] on an unknown name. *)

val headline : string list
(** The workloads aggregated in the paper-reproduction experiments:
    spec2000-mix, specweb, tpcc. *)
