(** Drive strength: alpha-power-law on-current and effective switching
    resistance.  These set the delay side of the trade-off: higher Vth or
    thicker Tox (through the channel-length scaling rule) weakens the
    device and slows the gate.  Like {!Leakage}, each multiplies the
    device's width into its {!Knob_state}; [tech] is the technology that
    state was built from. *)

val on_current : Tech.t -> Mosfet.t -> float
(** Saturation drive current at V_gs = Vdd [A]:
    I_on = k_sat · μ · C_ox · (W/L_eff) · (Vdd − V_th,eff)^α, with
    V_th,eff including the temperature and DIBL corrections.  Returns a
    tiny positive floor instead of 0 when Vdd ≤ V_th (deep subthreshold
    operation is outside this model's intent but must not divide by
    zero). *)

val effective_resistance : Tech.t -> Mosfet.t -> float
(** R_eff = 3/4 · Vdd / I_on [Ω] — the standard RC-delay switching
    resistance (averaged over the output transition). *)

val gate_capacitance : Tech.t -> Mosfet.t -> float
(** Input capacitance: C_ox·W·L_drawn + 2·C_overlap·W [F]. *)

val drain_capacitance : Tech.t -> Mosfet.t -> float
(** Parasitic drain capacitance: C_junction·W + C_overlap·W [F]. *)

val fo4_delay : Tech.t -> vth:float -> tox:float -> float
(** Delay of a fanout-of-4 inverter built from minimum-width devices at
    the given knobs [s] — a convenient technology health metric used by
    tests (≈ 15–25 ps at nominal 65 nm knobs). *)
