(** MOSFET instances.

    A device is a channel type, a width, and the device state of its
    (Vth, Tox) knob ({!Knob_state}): the two per-component design knobs
    of the paper — nominal threshold voltage (extracted at room
    temperature, zero V_sb, low V_ds) and gate-oxide thickness — and the
    width-independent factors of every device equation at them.  The
    channel length is not free: it follows the technology's Tox-scaling
    rule (see {!Tech.l_drawn}). *)

type channel = Nmos | Pmos

type t = {
  channel : channel;
  w : float;            (** gate width [m] *)
  knob : Knob_state.t;  (** the device state at the device's knob *)
}

val make : Knob_state.t -> channel:channel -> w:float -> t
(** [make knob ~channel ~w] builds a device on a knob's state, which
    all the devices of one circuit at one knob share.  Raises
    [Invalid_argument] unless [w > 0]. *)

val nmos : Tech.t -> w:float -> vth:float -> tox:float -> t
(** A stand-alone NMOS device: builds the state of its knob
    ({!Knob_state.make}, which validates the knobs) and the device. *)

val pmos : Tech.t -> w:float -> vth:float -> tox:float -> t

val pp : Format.formatter -> t -> unit
