(** The device state at one (Vth, Tox) knob.

    Every device equation of {!Leakage} and {!Drive} is a product of a
    factor that depends only on the technology and the knob — a
    [**], an [exp], the oxide capacitance — and the device's width.
    This record holds those factors, computed once per knob, so a
    circuit of many devices at one knob multiplies its widths into them
    instead of recomputing them per device.  {!Mosfet.make} builds a
    device on a state; a circuit builds one state per knob and shares
    it among all of its devices.  The factors that depend on the
    technology alone ({!tech_factors}) are computed once and shared by
    the states of every knob.

    Each factor is computed with exactly the operations, in exactly the
    order, the per-device equations used before they shared it, so
    every device quantity is bit-identical to its closed form.  The
    per-channel fields end in [_n] (NMOS) and [_p] (PMOS). *)

type t = private {
  vth : float;          (** nominal threshold at 300 K [V] *)
  tox : float;          (** gate-oxide thickness [m] *)
  l_drawn : float;      (** {!Tech.l_drawn} at [tox] [m] *)
  l_eff : float;        (** effective channel length: [l_eff_ratio] · [l_drawn] [m] *)
  cox : float;          (** {!Tech.cox} at [tox] [F/m²] *)
  sub_n : float;        (** I_s0 = μ · C_ox · (n − 1) · v_T² [A] *)
  sub_p : float;
  sub_gate : float;
      (** exp((V_gs − V_th,eff) / (n·v_T)) at V_gs = 0, V_ds = Vdd,
          V_sb = 0 *)
  sub_drain : float;    (** 1 − exp(−Vdd / v_T) *)
  gate_on_n : float;
      (** channel factor · J_ref · (V_ox/Vdd)² · exp(−b_gate·(T_ox −
          T_ox,ref)) at V_ox = Vdd [A/m²] *)
  gate_on_p : float;
  gate_off_n : float;   (** the same at V_ox = Vdd/3 [A/m²] *)
  gate_off_p : float;
  junction_t : float;   (** temperature activation of junction leakage *)
  on_n : float;         (** k_sat · μ · C_ox *)
  on_p : float;
  overdrive : float;    (** Vdd − V_th,eff at V_ds = Vdd, V_sb = 0 [V] *)
  on_overdrive : float; (** [overdrive] ^ α *)
}

type tech_factors
(** The knob-independent factors: thermal voltage, the temperature,
    DIBL and body shifts of the threshold, the drain and oxide-voltage
    terms and the junction's temperature activation. *)

val tech_factors : Tech.t -> tech_factors

val at : tech_factors -> vth:float -> tox:float -> t
(** [at factors ~vth ~tox] validates the knobs against the technology
    the factors were computed for ({!Tech.check_knobs}, whose message
    it raises unchanged) and computes the state. *)

val make : Tech.t -> vth:float -> tox:float -> t
(** [make tech ~vth ~tox] is [at (tech_factors tech) ~vth ~tox]. *)
