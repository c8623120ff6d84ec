(** Result artefacts: the tables and figure series experiments produce,
    with plain-text rendering for the CLI and CSV for the goldens. *)

type table = {
  title : string;
  columns : string list;
  rows : string list list;
}

type series = {
  label : string;
  points : (float * float) list;  (** (x, y), ascending x *)
}

type chart = {
  chart_title : string;
  x_label : string;
  y_label : string;
  series : series list;
}

type artefact =
  | Table of table
  | Chart of chart
  | Note of string

val table : title:string -> columns:string list -> rows:string list list -> artefact
(** Raises [Invalid_argument] if any row's width differs from the
    header's. *)

val chart :
  title:string -> x_label:string -> y_label:string -> series list -> artefact

val note : string -> artefact

val pp_artefact : Format.formatter -> artefact -> unit
(** Tables render with aligned columns; charts as one block per series
    listing (x, y) pairs — consumable by plotting scripts and diffable
    in EXPERIMENTS.md. *)

val render : artefact list -> string

val print : artefact list -> unit
(** [render] to stdout. *)

val to_csv : artefact -> string option
(** CSV rendering: tables become header + rows, charts become
    [series,x,y] rows; notes have no CSV form ([None]).  Cells
    containing commas or quotes are quoted per RFC 4180. *)

val render_csv : artefact list -> string
(** Concatenated CSV blocks (blank-line separated) of the artefacts
    that have a CSV form. *)

val fmt_f : ?decimals:int -> float -> string
(** Fixed-point float cell helper (default 2 decimals). *)

val fmt_pct : float -> string
(** Render a fraction as a percentage with 2 decimals. *)
