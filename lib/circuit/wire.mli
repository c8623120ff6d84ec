(** On-chip interconnect: distributed RC wires and repeater insertion.

    Bus drivers (two of the paper's four cache components) are repeated
    wires; wordlines and bitlines are unrepeated distributed RC lines
    loaded by cell pins. *)

type t = {
  length : float;   (** [m] *)
  r_total : float;  (** [Ω] *)
  c_total : float;  (** [F] *)
}

val make : Nmcache_device.Tech.t -> length:float -> t
(** Wire of the technology's local layer.  Raises [Invalid_argument] on
    a negative length. *)

val elmore : t -> r_driver:float -> c_load:float -> float
(** Delay of driver + distributed wire + lumped load:
    0.69·R_drv·(C_w + C_l) + 0.38·R_w·C_w + 0.69·R_w·C_l [s]. *)

type repeated = {
  delay : float;        (** total propagation delay [s] *)
  leak_w : float;       (** leakage of all repeaters [W] *)
  energy_per_transition : float; (** switching energy, full swing [J] *)
  n_repeaters : int;
  repeater_size : float;
  area : float;         (** repeater area [m²] *)
}

val repeated : Nmcache_device.Tech.t -> Nmcache_device.Knob_state.t -> length:float -> repeated
(** Classic optimal repeater insertion for a long wire, its repeaters
    built on the device state [knob]: stage count
    k ≈ √(0.4·R_w·C_w / (0.7·R₀·C₀)), repeater size
    s ≈ √(R₀·C_w / (R_w·C₀)), evaluated with at least one stage.
    The delay, leakage and energy include the repeaters and the wire. *)
