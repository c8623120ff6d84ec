module Constants = Nmcache_physics.Constants

type t = {
  vth : float;
  tox : float;
  l_drawn : float;
  l_eff : float;
  cox : float;
  sub_n : float;
  sub_p : float;
  sub_gate : float;
  sub_drain : float;
  gate_on_n : float;
  gate_on_p : float;
  gate_off_n : float;
  gate_off_p : float;
  junction_t : float;
  on_n : float;
  on_p : float;
  overdrive : float;
  on_overdrive : float;
}

type tech_factors = {
  tech : Tech.t;
  vt : float;
  n_vt : float;
  temp_shift : float;
  dibl_shift : float;
  body_shift : float;
  mu_p : float;
  sub_drain : float;
  gate_on_v : float;
  gate_off_v : float;
  junction_t : float;
}

(* Every device equation is taken with the drain at Vdd and the source
   at ground: the threshold is corrected for temperature (linear
   [vth_temp_coeff·(T − 300)]), DIBL ([−dibl·V_ds]) and the linearised
   body effect ([+body_gamma·V_sb]). *)
let tech_factors (tech : Tech.t) =
  let vt = Tech.thermal_voltage tech in
  let vds = tech.vdd and vsb = 0.0 in
  {
    tech;
    vt;
    n_vt = tech.n_swing *. vt;
    temp_shift = tech.vth_temp_coeff *. (tech.temp_k -. Constants.room_temperature);
    dibl_shift = tech.dibl *. vds;
    body_shift = tech.body_gamma *. vsb;
    mu_p = tech.mu_n *. tech.mu_p_ratio;
    sub_drain = 1.0 -. Float.exp (-.vds /. vt);
    (* (V_ox/Vdd)² of a conducting device and of an off device's
       gate-drain overlap *)
    gate_on_v = (tech.vdd /. tech.vdd) ** 2.0;
    gate_off_v = (tech.vdd /. 3.0 /. tech.vdd) ** 2.0;
    (* weak exponential temperature activation (~2x per 25 K) *)
    junction_t = Float.exp ((tech.temp_k -. Constants.room_temperature) /. 36.0);
  }

let at f ~vth ~tox =
  let tech = f.tech in
  Tech.check_knobs tech ~vth ~tox;
  let cox = Tech.cox tech ~tox in
  let l_drawn = Tech.l_drawn tech ~tox in
  let mu_n = tech.mu_n and mu_p = f.mu_p and vt = f.vt in
  let vth_op = vth +. f.temp_shift -. f.dibl_shift +. f.body_shift in
  let vgs = 0.0 in
  (* tunnelling density J_ref · (V_ox/Vdd)² · exp(−b_gate·(T_ox −
     T_ox,ref)); PMOS (hole) tunnelling carries a channel factor of
     0.4 *)
  let tunnel = Float.exp (-.tech.b_gate *. (tox -. tech.tox_ref)) in
  let j_on = tech.j_gate_ref *. f.gate_on_v *. tunnel in
  let j_off = tech.j_gate_ref *. f.gate_off_v *. tunnel in
  let overdrive = tech.vdd -. vth_op in
  {
    vth;
    tox;
    l_drawn;
    l_eff = tech.l_eff_ratio *. l_drawn;
    cox;
    sub_n = mu_n *. cox *. (tech.n_swing -. 1.0) *. vt *. vt;
    sub_p = mu_p *. cox *. (tech.n_swing -. 1.0) *. vt *. vt;
    sub_gate = Float.exp ((vgs -. vth_op) /. f.n_vt);
    sub_drain = f.sub_drain;
    gate_on_n = 1.0 *. j_on;
    gate_on_p = 0.4 *. j_on;
    gate_off_n = 1.0 *. j_off;
    gate_off_p = 0.4 *. j_off;
    junction_t = f.junction_t;
    on_n = tech.k_sat *. mu_n *. cox;
    on_p = tech.k_sat *. mu_p *. cox;
    overdrive;
    on_overdrive = overdrive ** tech.alpha_sat;
  }

let make tech ~vth ~tox = at (tech_factors tech) ~vth ~tox
