(** Pareto frontiers for bi-objective minimisation. *)

val front : key:('a -> float * float) -> 'a list -> 'a list
(** [front ~key items] keeps the non-dominated items when both
    coordinates are minimised, sorted by ascending first coordinate
    (ties broken by the second).  An item is dominated when another is
    ≤ in both coordinates and < in at least one.  Duplicate-coordinate
    items keep a single representative. *)

val dominates : float * float -> float * float -> bool
(** [dominates a b] — a is at least as good in both and strictly better
    in one. *)

val is_front : key:('a -> float * float) -> 'a list -> bool
(** Whether the list is sorted by x with strictly decreasing y and no
    dominated element — the invariant property tests check. *)
