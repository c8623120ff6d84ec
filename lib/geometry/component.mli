(** The paper's four cache circuit components and their evaluation
    summaries. *)

type kind =
  | Array_sense    (** memory-cell array + sense amplifiers *)
  | Decoder        (** predecoders, row gates, wordline drivers *)
  | Addr_drivers   (** address distribution: repeated wires + drivers *)
  | Data_drivers   (** data output distribution *)

val all_kinds : kind list
(** In the paper's order: array, decoder, address drivers, data
    drivers. *)

val kind_name : kind -> string
val kind_of_name : string -> kind option
val kind_index : kind -> int
(** 0..3, in [all_kinds] order. *)

type summary = {
  delay : float;       (** contribution to the access time [s] *)
  leak_w : float;      (** total leakage power [W] *)
  dyn_energy : float;  (** dynamic energy per access [J] *)
  area : float;        (** layout area [m²] *)
}

val zero_summary : summary

val add_summary : summary -> summary -> summary
(** Component-wise sum (delays add because the access path is serial —
    the paper's model). *)

type knob = {
  vth : float;  (** [V] *)
  tox : float;  (** [m] *)
}

val knob : vth:float -> tox:float -> knob

val pp_knob : Format.formatter -> knob -> unit
(** e.g. ["(0.30V, 12.0A)"]. *)

type assignment = {
  array : knob;
  decoder : knob;
  addr : knob;
  data : knob;
}

val uniform : knob -> assignment
(** Scheme III: every component gets the same pair. *)

val split : cell:knob -> periphery:knob -> assignment
(** Scheme II: the array gets [cell]; decoder and both driver groups get
    [periphery]. *)

val get : assignment -> kind -> knob
val set : assignment -> kind -> knob -> assignment

val pp_assignment : Format.formatter -> assignment -> unit
