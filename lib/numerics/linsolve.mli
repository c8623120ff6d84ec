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
    the others to within rounding. *)

val invert : Matrix.t -> Matrix.t
(** [invert a] is the inverse of square matrix [a].  Raises {!Singular}
    when [a] is not invertible. *)

val residual_norm : Matrix.t -> float array -> float array -> float
(** [residual_norm a x b] is ‖a·x − b‖₂. *)
