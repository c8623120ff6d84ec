(** Small dense matrices over [float].

    This is a deliberately minimal implementation sized for the model
    fitting done in this project (systems of a handful of unknowns); it is
    not a general-purpose linear-algebra package.  Matrices are stored
    row-major in a flat [float array] and are mutable. *)

type t
(** A dense [rows] × [cols] matrix. *)

val create : rows:int -> cols:int -> t
(** [create ~rows ~cols] is a zero matrix.  Raises [Invalid_argument] if
    either dimension is not positive. *)

val of_rows : float array array -> t
(** [of_rows a] builds a matrix from an array of equally-long rows.
    Raises [Invalid_argument] on an empty or ragged input. *)

val identity : int -> t
(** [identity n] is the n × n identity. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
(** [get m i j] is element (i, j); 0-based.  Raises [Invalid_argument]
    when out of bounds. *)

val set : t -> int -> int -> float -> unit
(** [set m i j v] stores [v] at (i, j).  Raises [Invalid_argument] when
    out of bounds. *)

val copy : t -> t

val transpose : t -> t

val mul : t -> t -> t
(** [mul a b] is the matrix product.  Raises [Invalid_argument] on a
    dimension mismatch. *)

val mul_vec : t -> float array -> float array
(** [mul_vec a x] is [a · x].  Raises [Invalid_argument] on a dimension
    mismatch. *)

val add : t -> t -> t
(** Element-wise sum.  Raises [Invalid_argument] on a shape mismatch. *)

val scale : float -> t -> t
(** [scale k m] is [k · m] (new matrix). *)

val map_row : t -> int -> (float -> float) -> unit
(** [map_row m i f] applies [f] in place to row [i]. *)

val pp : Format.formatter -> t -> unit
(** Debug printer. *)

val equal : ?eps:float -> t -> t -> bool
(** Element-wise comparison with absolute tolerance [eps] (default 1e-12). *)
