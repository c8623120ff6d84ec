(** Device leakage currents: subthreshold, gate tunnelling, junction.

    These are the compact equations our "HSPICE substitute" evaluates;
    together they define total leakage, which is the quantity the paper
    optimises.  All currents are in amperes for the given device, all
    powers in watts.  Each multiplies the device's width into the
    factors its {!Knob_state} holds; [tech] is the technology that
    state was built from. *)

val subthreshold_off : Tech.t -> Mosfet.t -> float
(** Off-state subthreshold (weak-inversion) drain current, at V_gs = 0,
    V_ds = Vdd, V_sb = 0:
    I = I_s0 · (W/L_eff) · exp((V_gs − V_th,eff)/(n·v_T)) · (1 − exp(−V_ds/v_T))
    with I_s0 = μ · C_ox · (n − 1) · v_T².  Exponentially decreasing in
    the device's Vth knob. *)

val gate_on : Tech.t -> Mosfet.t -> float
(** Gate direct-tunnelling current of a conducting device (V_ox = Vdd)
    — e.g. the ON transistors of a CMOS gate, or both "high-gate"
    devices of an SRAM cell's cross-coupled pair:
    I = J_ref · (V_ox/Vdd)² · exp(−b_gate·(T_ox − T_ox,ref)) · W · L_drawn.
    Exponentially decreasing in the Tox knob.  PMOS tunnelling is a
    factor 0.4 lower (hole tunnelling). *)

val gate_off : Tech.t -> Mosfet.t -> float
(** Gate tunnelling of an OFF device with its drain at Vdd: the
    gate-drain overlap still tunnels, at a reduced oxide voltage
    (V_ox = Vdd/3, the usual EDP-style estimate). *)

val junction : Tech.t -> Mosfet.t -> float
(** Reverse-biased drain-junction (incl. BTBT) leakage; a small, mostly
    knob-independent term kept for completeness. *)

val off_state_total : Tech.t -> Mosfet.t -> float
(** Total leakage current of a single OFF device with drain at Vdd:
    {!subthreshold_off} + {!gate_off} + {!junction}. *)

val subthreshold_swing : Tech.t -> float
(** n · v_T · ln 10 — mV of Vth per decade of subthreshold current;
    exposed because tests verify the model's slope against it. *)
