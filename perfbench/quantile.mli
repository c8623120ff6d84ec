(** Nearest-rank quantiles over raw latency samples.

    Every summary carries its sample count, so a percentile is never
    quoted without the number of samples behind it.  The tail
    percentile is the highest of p90 / p99 / p99.9 that still has at
    least {!min_beyond} samples above it; with fewer than
    [10 * min_beyond] samples there is none.  A percentile is the
    sample at the 1-based rank [ceil (n * p)], computed in integers. *)

type t = {
  n : int;  (** samples *)
  p50 : float;
  p90 : float;
  p99 : float;
  tail : (string * float) option;
      (** [("p99", v)]: the highest percentile with {!min_beyond}
          samples beyond it *)
}

val min_beyond : int
(** 10. *)

val summarize : float array -> t
(** Sorts a copy.  Raises [Invalid_argument] on an empty array. *)

val self_check : unit -> unit
(** Checks {!summarize} on known arrays; raises [Failure] naming the
    first mismatch. *)
