(** Linear-system and least-squares solvers for small dense systems. *)

exception Singular
(** Raised when a system is (numerically) singular. *)

val solve : Matrix.t -> float array -> float array
(** [solve a b] solves the square system [a · x = b] by Gaussian
    elimination with partial pivoting.  Raises {!Singular} if a pivot is
    numerically zero, and [Invalid_argument] on a shape mismatch. *)

val lstsq : Matrix.t -> float array -> float array
(** [lstsq a b] solves the overdetermined system [a · x ≈ b] in the
    least-squares sense: {!lstsq_weighted} with unit weights. *)

val lstsq_weighted : Matrix.t -> float array -> weights:float array -> float array
(** [lstsq_weighted a b ~weights] is weighted least squares: it minimises
    Σ w_i (a_i·x − b_i)² by Householder QR of the row-weighted design
    with every column scaled to unit norm, so columns many decades
    apart in magnitude solve to full precision.  [a] must have at least
    as many rows as columns and all weights must be non-negative.
    Raises {!Singular} when a column is zero or linearly dependent on
    the others to within rounding.  It is {!factor_weighted} followed
    by {!solve_into}. *)

type qr
(** A reusable workspace holding the factorisation of one weighted
    design: R, the column scales, √w and the Householder reflectors.
    It is mutable and owned by one caller at a time. *)

val qr : rows:int -> cols:int -> qr
(** [qr ~rows ~cols] is an empty workspace for [rows] × [cols] designs.
    Raises [Invalid_argument] when [rows < cols]. *)

val factor_weighted : qr -> float array -> weights:float array -> unit
(** [factor_weighted f design ~weights] factors the weighted design
    into [f], replacing what it held, and allocates nothing.  [design]
    is column-major: element (i, j) is at [j·rows + i].  Validation and
    {!Singular} are as for {!lstsq_weighted}; after [Singular], [f]
    holds no usable factorisation until the next successful call. *)

val solve_into : qr -> float array -> float array -> unit
(** [solve_into f b x] writes into [x] the weighted least-squares
    solution for right-hand side [b] against the design last factored
    into [f], allocating nothing.  Any number of right-hand sides may be
    solved against one factorisation, and each result is bit-identical
    to {!lstsq_weighted} on the same design, weights and [b]. *)

val invert : Matrix.t -> Matrix.t
(** [invert a] is the inverse of square matrix [a].  Raises {!Singular}
    when [a] is not invertible. *)

val residual_norm : Matrix.t -> float array -> float array -> float
(** [residual_norm a x b] is ‖a·x − b‖₂. *)
