(** Zipf-distributed sampling over a finite universe.

    Popularity of web objects and database rows is classically modelled
    as Zipf: the i-th most popular of [n] items has probability
    proportional to 1/i^s.  Sampling is rejection-inversion (Hörmann and
    Derflinger, ACM TOMACS 6(3), 1996): exact for the law, O(1) memory
    and expected O(1) time per draw at every [n], with no table. *)

type t

val create : n:int -> s:float -> t
(** [create ~n ~s] prepares a sampler over ranks [0, n) with exponent
    [s >= 0]: a few constants, in O(1) time and memory.  [s = 0]
    degenerates to the uniform distribution.  Raises [Invalid_argument]
    if [n <= 0] or [s < 0]. *)

val n : t -> int
(** Universe size. *)

val exponent : t -> float
(** The exponent [s]. *)

val sample : t -> Rng.t -> int
(** [sample t rng] draws a rank in [0, n); rank 0 is the most popular.
    A draw allocates nothing. *)

val pmf : t -> int -> float
(** [pmf t k] is the probability of rank [k], from the closed form.
    The first call sums the normaliser over all [n] ranks (O(n) time,
    once per sampler).  Raises [Invalid_argument] when [k] is out of
    range. *)
