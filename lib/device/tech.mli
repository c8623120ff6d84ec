(** Technology description: a BPTM-65nm-like parameter set.

    The paper characterises Berkeley Predictive Technology Model files for
    a 65 nm node over a (Vth, Tox) design grid.  This module is our
    equivalent: one record holding every process-level constant the
    compact device equations need, with a calibrated 65 nm default.  All
    lengths are metres, voltages volts, temperatures kelvin.

    The [Vth] and [Tox] *knobs* of the paper are not stored here — they
    are per-device (see {!Mosfet}); this record holds their legal ranges
    and everything that does not change when a designer re-assigns a
    component's threshold or oxide. *)

type t = {
  name : string;
  vdd : float;                (** supply voltage [V] *)
  temp_k : float;             (** operating temperature [K] *)
  l_drawn_ref : float;        (** drawn channel length at [tox_ref] [m] *)
  l_eff_ratio : float;        (** effective/drawn channel length ratio *)
  l_scaling_exponent : float; (** exponent of the Tox->channel-length
                                  scaling rule (0.5: L grows with the
                                  square root of the oxide thickness) *)
  tox_ref : float;            (** reference gate-oxide thickness [m] *)
  tox_min : float;            (** lower legal oxide thickness [m] *)
  tox_max : float;            (** upper legal oxide thickness [m] *)
  vth_min : float;            (** lower legal threshold [V] *)
  vth_max : float;            (** upper legal threshold [V] *)
  n_swing : float;            (** subthreshold swing ideality factor *)
  dibl : float;               (** DIBL coefficient [V/V] at reference L *)
  body_gamma : float;         (** linearised body-effect coefficient [V/V] *)
  vth_temp_coeff : float;     (** dVth/dT [V/K], negative *)
  mu_n : float;               (** effective electron mobility [m²/Vs] *)
  mu_p_ratio : float;         (** hole/electron mobility ratio *)
  alpha_sat : float;          (** alpha-power-law velocity-saturation index *)
  k_sat : float;              (** empirical drive-current prefactor
                                  (absorbs the V^(2−alpha) dimensional
                                  residue of the alpha-power law) *)
  j_gate_ref : float;         (** gate tunnelling density at
                                  ([tox_ref], [vdd]) [A/m²] *)
  b_gate : float;             (** gate tunnelling exponential slope [1/m] *)
  j_junction : float;         (** junction (BTBT) leakage density [A/m²] *)
  c_overlap : float;          (** gate overlap capacitance per width [F/m] *)
  c_junction : float;         (** drain junction capacitance per width [F/m] *)
  wire_r_per_m : float;       (** local-layer wire resistance [Ω/m] *)
  wire_c_per_m : float;       (** local-layer wire capacitance [F/m] *)
}

val bptm65 : t
(** The calibrated 65 nm default used throughout the paper reproduction:
    Vdd = 1.0 V, T = 300 K (the BPTM/HSPICE characterisation default —
    use {!with_temperature} with {!Nmcache_physics.Constants.hot_temperature}
    for the thermal-sensitivity extension), Tox ∈ [10 Å, 14 Å]
    (ref 12 Å), Vth ∈ [0.2 V, 0.5 V]. *)

val with_temperature : t -> temp_k:float -> t
(** Same process at a different operating temperature.  Raises
    [Invalid_argument] if [temp_k <= 0]. *)

val with_vdd : t -> vdd:float -> t
(** Same process at a different supply.  Raises [Invalid_argument] if
    [vdd <= 0]. *)

val thermal_voltage : t -> float
(** kT/q at the operating temperature [V]. *)

val cox : t -> tox:float -> float
(** Gate-oxide capacitance per area [F/m²] at oxide thickness [tox].
    Raises [Invalid_argument] if [tox <= 0]. *)

val l_drawn : t -> tox:float -> float
(** The paper's scaling rule: drawn channel length must track oxide
    thickness to preserve electrostatic integrity (DIBL):
    [l_drawn_ref · (tox / tox_ref) ^ l_scaling_exponent].  Memory-cell
    widths track L, so the cell area grows in both dimensions with
    Tox. *)

val check_knobs : t -> vth:float -> tox:float -> unit
(** Validates that a (Vth, Tox) assignment lies in the legal design
    range; raises [Invalid_argument] otherwise. *)

val pp : Format.formatter -> t -> unit
