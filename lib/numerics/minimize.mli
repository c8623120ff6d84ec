(** Evenly spaced sample points for the knob grids. *)

val linspace : lo:float -> hi:float -> steps:int -> float array
(** [linspace ~lo ~hi ~steps] is [steps + 1] equally spaced values from
    [lo] to [hi] inclusive.  [steps = 0] yields [[| lo |]] (requires
    [lo = hi]).  Raises [Invalid_argument] on a negative [steps] or
    [lo > hi]. *)
