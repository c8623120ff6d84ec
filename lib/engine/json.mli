(** A deliberately small JSON value type, printer and parser.

    The observability layer (span traces, metrics and fault reports)
    and the serve protocol need machine-readable output and the test
    suite needs to parse it back; the project has no JSON dependency, so this module
    carries the ~200 lines it actually uses.  The printer emits
    compact, valid JSON (non-finite floats become [null]); the parser
    accepts anything the printer emits plus ordinary interchange JSON
    (escapes, exponents, nested containers). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no insignificant whitespace). *)

val to_buffer : Buffer.t -> t -> unit
(** {!to_string}, appended to a buffer. *)

val to_string_pretty : t -> string
(** Two-space indented rendering — the format written to report
    files, so they are diffable and humane to open. *)

val parse : string -> (t, string) result
(** Parse one JSON document; [Error msg] carries a character offset.
    Trailing whitespace is allowed, trailing garbage is not. *)

val parse_exn : string -> t
(** Like {!parse}; raises [Failure] on malformed input. *)

(* -- accessors (total: return [None] on shape mismatch) ------------- *)

val member : string -> t -> t option
(** Field lookup in an [Obj]: the first field with that name. *)

val to_list : t -> t list option
val to_float : t -> float option
(** Numeric value of an [Int] or [Float]. *)

val to_int : t -> int option
val to_str : t -> string option
