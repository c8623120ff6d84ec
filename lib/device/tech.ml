module Constants = Nmcache_physics.Constants
module Units = Nmcache_physics.Units

type t = {
  name : string;
  vdd : float;
  temp_k : float;
  l_drawn_ref : float;
  l_eff_ratio : float;
  l_scaling_exponent : float;
  tox_ref : float;
  tox_min : float;
  tox_max : float;
  vth_min : float;
  vth_max : float;
  n_swing : float;
  dibl : float;
  body_gamma : float;
  vth_temp_coeff : float;
  mu_n : float;
  mu_p_ratio : float;
  alpha_sat : float;
  k_sat : float;
  j_gate_ref : float;
  b_gate : float;
  j_junction : float;
  c_overlap : float;
  c_junction : float;
  wire_r_per_m : float;
  wire_c_per_m : float;
}

(* Calibration notes (magnitudes targeted, see DESIGN.md §5):
   - subthreshold swing n·vT·ln10 ≈ 80 mV/dec at 300 K;
   - low-Vth NMOS off-current ≈ uA/um, high-Vth ≈ nA/um (3.7 decades
     over the 0.2-0.5 V knob range);
   - gate tunnelling spans the same ~3.7 decades over 10-14 A so that
     it surpasses subthreshold at thin oxide (the paper's premise) and
     vanishes below the high-Vth floor at 14 A: ~77 A/cm2 at 12 A / 1 V,
     one decade per ~1.1 A;
   - junction/GIDL floor ≈ 1.3 nA per minimum drain (~4 nA per SRAM
     cell), the knob-independent A0 term of the paper's model;
   - on-current ≈ 1 mA/um for (Vth = 0.25 V, Tox = 12 A). *)
let bptm65 =
  {
    name = "bptm65";
    vdd = 1.0;
    temp_k = Constants.room_temperature;
    l_drawn_ref = Units.nm 65.0;
    l_eff_ratio = 0.7;
    l_scaling_exponent = 0.5;
    tox_ref = Units.angstrom 12.0;
    tox_min = Units.angstrom 10.0;
    tox_max = Units.angstrom 14.0;
    vth_min = 0.2;
    vth_max = 0.5;
    n_swing = 1.35;
    dibl = 0.08;
    body_gamma = 0.15;
    vth_temp_coeff = -0.8e-3;
    mu_n = 0.020;
    mu_p_ratio = 0.42;
    alpha_sat = 2.0;
    k_sat = 0.14;
    j_gate_ref = 1.5e5;
    b_gate = 2.1e10;
    j_junction = 9.0e4;
    c_overlap = 3.0e-10;
    c_junction = 8.0e-10;
    wire_r_per_m = 1.6e6;
    wire_c_per_m = 2.0e-10;
  }

let with_temperature t ~temp_k =
  if temp_k <= 0.0 then invalid_arg "Tech.with_temperature: temp_k <= 0";
  { t with temp_k }

let with_vdd t ~vdd =
  if vdd <= 0.0 then invalid_arg "Tech.with_vdd: vdd <= 0";
  { t with vdd }

let thermal_voltage t = Constants.thermal_voltage ~temp_k:t.temp_k

let cox _t ~tox =
  if tox <= 0.0 then invalid_arg "Tech.cox: tox <= 0";
  Constants.eps_sio2 /. tox

let l_drawn t ~tox = t.l_drawn_ref *. ((tox /. t.tox_ref) ** t.l_scaling_exponent)

let check_knobs t ~vth ~tox =
  let eps = 1e-12 in
  if vth < t.vth_min -. eps || vth > t.vth_max +. eps then
    invalid_arg
      (Printf.sprintf "Tech.check_knobs: Vth %.3f V outside [%.3f, %.3f]" vth t.vth_min
         t.vth_max);
  if tox < t.tox_min -. 1e-13 || tox > t.tox_max +. 1e-13 then
    invalid_arg
      (Printf.sprintf "Tech.check_knobs: Tox %.2f A outside [%.2f, %.2f]"
         (Units.to_angstrom tox)
         (Units.to_angstrom t.tox_min)
         (Units.to_angstrom t.tox_max))

let pp fmt t =
  Format.fprintf fmt
    "@[<v>%s: Vdd=%.2fV T=%.0fK Ldrawn=%.0fnm Tox=[%.0f..%.0f]A (ref %.0f) Vth=[%.2f..%.2f]V@]"
    t.name t.vdd t.temp_k (Units.to_nm t.l_drawn_ref)
    (Units.to_angstrom t.tox_min) (Units.to_angstrom t.tox_max)
    (Units.to_angstrom t.tox_ref) t.vth_min t.vth_max
