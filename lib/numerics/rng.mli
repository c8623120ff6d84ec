(** Deterministic pseudo-random number generation.

    Every experiment in this repository must be exactly reproducible, so
    all randomness flows through explicitly seeded generators from this
    module rather than the stdlib's global state.  The core generator is
    xoshiro256** seeded via splitmix64. *)

type t
(** Mutable generator state.  Drawing an [int], [bool], {!bits53} or
    any sample that reduces to one in this module allocates nothing;
    a {!bits64} or {!float} result is boxed when it is returned across
    a module boundary. *)

val create : seed:int64 -> t
(** [create ~seed] builds a generator; any seed (including 0) is valid. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give sub-components their own streams. *)

val copy : t -> t
(** Snapshot of the current state (for replay). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val bits53 : t -> int
(** The top 53 bits of the next raw output, uniform in [\[0, 2^53)].
    [float t] is exactly [Float.of_int (bits53 t) *. 0x1p-53], which is
    how an allocation-free caller in another module draws a float. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform in [0, bound).  Raises [Invalid_argument]
    if [bound <= 0]. *)

val float : t -> float
(** Uniform in [0, 1). *)

val float_range : t -> lo:float -> hi:float -> float
(** Uniform in [lo, hi).  Raises [Invalid_argument] if [lo > hi]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is true with probability [p] (clamped to [0, 1]). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean.  Raises
    [Invalid_argument] if [mean <= 0]. *)

val geometric : t -> p:float -> int
(** Number of failures before the first success of a Bernoulli([p])
    process, i.e. geometric on {0, 1, ...}.  Raises [Invalid_argument]
    unless [0 < p <= 1]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val splitmix64 : int64 -> int64
(** The raw splitmix64 mixing function (exposed for tests). *)
