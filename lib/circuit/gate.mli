(** Static CMOS gate models.

    A gate is summarised by its switching resistance, input/self
    capacitance, state-averaged leakage power and layout area — all as
    functions of its (Vth, Tox) knob assignment and drive size.  These
    summaries are what the cache-component netlists are assembled from.
    A gate is built on the device state of its knob
    ({!Nmcache_device.Knob_state}), which every gate of a circuit at
    that knob shares; [tech] is the technology that state was built
    from.

    Sizing convention: [size] is the drive strength as a multiple of the
    unit inverter (NMOS width = 2·L_drawn, PMOS = 2× that); a [size]-X
    gate has [size]× the unit currents and capacitances. *)

type t = {
  r_drive : float;    (** effective switching resistance [Ω] *)
  c_in : float;       (** input capacitance per input pin [F] *)
  c_self : float;     (** output self-loading (parasitic) [F] *)
  leak_w : float;     (** state-averaged total leakage power [W] *)
  area : float;       (** layout-area estimate [m²] *)
  logical_effort : float; (** logical effort g of this topology *)
}

val unit_nmos_width : Nmcache_device.Knob_state.t -> float
(** NMOS width of the unit inverter at the knob's oxide (2·L_drawn). *)

val inverter : Nmcache_device.Tech.t -> Nmcache_device.Knob_state.t -> size:float -> t
(** Unit-based inverter.  Raises [Invalid_argument] if [size <= 0]. *)

val nand :
  Nmcache_device.Tech.t -> Nmcache_device.Knob_state.t -> size:float -> inputs:int -> t
(** [inputs]-input NAND (series NMOS stack); the stacked off-state gets
    the usual ~4–5× subthreshold reduction (stack effect).  Raises
    [Invalid_argument] if [inputs < 2] or [size <= 0]. *)

val nor :
  Nmcache_device.Tech.t -> Nmcache_device.Knob_state.t -> size:float -> inputs:int -> t
(** [inputs]-input NOR (series PMOS stack).  Same validation as {!nand}. *)

val delay : t -> c_load:float -> float
(** [delay g ~c_load] = 0.69 · r_drive · (c_self + c_load) [s]. *)

val switch_energy : Nmcache_device.Tech.t -> t -> c_load:float -> float
(** Energy of one output transition: (c_self + c_load) · Vdd² [J]
    (both edges; halve for a single edge). *)

val stack_factor : float
(** Subthreshold reduction factor applied to a 2-high off stack. *)
