(** Latch-type sense amplifier.

    One per active bitline pair; grouped with the memory-cell array in
    the paper's component split.  The sense amplifier resolves once the
    bitline differential reaches [sense_swing · Vdd]. *)

type t = {
  delay : float;       (** resolution delay after fire [s] *)
  leak_w : float;      (** standby leakage [W] *)
  energy : float;      (** energy per sensing operation [J] *)
  c_input : float;     (** loading presented to the bitline [F] *)
  area : float;        (** layout area [m²] *)
}

val sense_swing : float
(** Required bitline differential as a fraction of Vdd (0.1). *)

val make : Nmcache_device.Tech.t -> Nmcache_device.Knob_state.t -> t
(** Sense amp built from ~6 unit devices on the device state of its
    knob; delay is a few gate delays of the cross-coupled pair. *)
