(** Device leakage currents: subthreshold, gate tunnelling, junction.

    These are the compact equations our "HSPICE substitute" evaluates;
    together they define total leakage, which is the quantity the paper
    optimises.  All currents are in amperes for the given device, all
    powers in watts. *)

val subthreshold : Tech.t -> Mosfet.t -> vgs:float -> vds:float -> vsb:float -> float
(** Subthreshold (weak-inversion) drain current:
    I = I_s0 · (W/L_eff) · exp((V_gs − V_th,eff)/(n·v_T)) · (1 − exp(−V_ds/v_T))
    with I_s0 = μ · C_ox · (n − 1) · v_T².  Exponentially decreasing in
    the device's Vth knob. *)

val subthreshold_off : Tech.t -> Mosfet.t -> float
(** Off-state subthreshold current: V_gs = 0, V_ds = Vdd, V_sb = 0. *)

val gate : Tech.t -> Mosfet.t -> vox:float -> float
(** Gate direct-tunnelling current at oxide voltage [vox]:
    I = J_ref · (V_ox/Vdd)² · exp(−b_gate·(T_ox − T_ox,ref)) · W · L_drawn.
    Exponentially decreasing in the Tox knob.  PMOS tunnelling is a
    factor ~0.4 lower (hole tunnelling). *)

val gate_on : Tech.t -> Mosfet.t -> float
(** Gate leakage of a conducting device (V_ox = Vdd) — e.g. the ON
    transistors of a CMOS gate, or both "high-gate" devices of an SRAM
    cell's cross-coupled pair. *)

val junction : Tech.t -> Mosfet.t -> float
(** Reverse-biased drain-junction (incl. BTBT) leakage; a small, mostly
    knob-independent term kept for completeness. *)

val off_state_total : Tech.t -> Mosfet.t -> float
(** Total leakage current of a single OFF device with drain at Vdd:
    subthreshold + edge (off-state) gate tunnelling + junction.  The
    off-state gate term uses a reduced oxide voltage (≈ Vdd/3, the
    gate-to-drain overlap condition). *)

val subthreshold_swing : Tech.t -> float
(** n · v_T · ln 10 — mV of Vth per decade of subthreshold current;
    exposed because tests verify the model's slope against it. *)
