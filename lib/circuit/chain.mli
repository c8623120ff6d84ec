(** Logical-effort buffer chains.

    Decoders and drivers are chains of stages between a small input gate
    and a large capacitive load; the method of logical effort gives the
    near-optimal stage count and per-stage delay.  This module sizes a
    chain, then reports delay, leakage, switching energy and area. *)

type t = {
  delay : float;          (** input-to-output delay [s] *)
  leak_w : float;         (** summed leakage of all stages [W] *)
  energy : float;         (** switching energy of one full transition [J] *)
  area : float;           (** [m²] *)
  n_stages : int;
  stage_effort : float;   (** realised effort per stage *)
}

val buffer :
  Nmcache_device.Tech.t -> Nmcache_device.Knob_state.t -> c_in:float -> c_load:float -> t
(** [buffer tech knob ~c_in ~c_load] is an inverter chain, every stage
    built on the device state [knob], whose first stage presents ≈
    [c_in] at its input and which drives [c_load].  Stage count is chosen so the effort per stage is near 4
    (min 1 stage).  Raises [Invalid_argument] if [c_in <= 0] or
    [c_load < 0]. *)

val with_first_gate :
  Nmcache_device.Tech.t -> Nmcache_device.Knob_state.t -> first:Gate.t -> c_load:float -> t
(** Like {!buffer} but the first stage is the given logic gate (e.g. a
    decoder NAND); its logical effort multiplies the path effort and its
    leakage/area are included. *)
