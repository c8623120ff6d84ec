module Tech = Nmcache_device.Tech
module Knob_state = Nmcache_device.Knob_state
module Mosfet = Nmcache_device.Mosfet
module Leakage = Nmcache_device.Leakage
module Drive = Nmcache_device.Drive

type t = {
  r_drive : float;
  c_in : float;
  c_self : float;
  leak_w : float;
  area : float;
  logical_effort : float;
}

let stack_factor = 0.22

let unit_nmos_width (knob : Knob_state.t) = 2.0 *. knob.l_drawn

(* Layout area of a transistor pair column: width sum x (7.5 x L) pitch. *)
let pair_area (knob : Knob_state.t) ~w_n ~w_p =
  let pitch = 7.5 *. knob.l_drawn in
  (w_n +. w_p) *. pitch

let inverter tech knob ~size =
  if size <= 0.0 then invalid_arg "Gate.inverter: size <= 0";
  let w_n = size *. unit_nmos_width knob in
  let w_p = 2.0 *. w_n in
  let n = Mosfet.make knob ~channel:Nmos ~w:w_n in
  let p = Mosfet.make knob ~channel:Pmos ~w:w_p in
  let r_drive =
    0.5 *. (Drive.effective_resistance tech n +. Drive.effective_resistance tech p)
  in
  let c_in = Drive.gate_capacitance tech n +. Drive.gate_capacitance tech p in
  let c_self = Drive.drain_capacitance tech n +. Drive.drain_capacitance tech p in
  (* Input-state average: in each state one device leaks subthreshold
     (drain at the rail) and the conducting device tunnels through its
     gate; the off device adds its residual off-state gate term. *)
  let vdd = tech.Tech.vdd in
  let state0 =
    (* input low: NMOS off, PMOS on *)
    (Leakage.subthreshold_off tech n *. vdd)
    +. (Leakage.gate_on tech p *. vdd)
    +. (Leakage.gate_off tech n *. vdd)
    +. (Leakage.junction tech n *. vdd)
  in
  let state1 =
    (Leakage.subthreshold_off tech p *. vdd)
    +. (Leakage.gate_on tech n *. vdd)
    +. (Leakage.gate_off tech p *. vdd)
    +. (Leakage.junction tech p *. vdd)
  in
  {
    r_drive;
    c_in;
    c_self;
    leak_w = 0.5 *. (state0 +. state1);
    area = pair_area knob ~w_n ~w_p;
    logical_effort = 1.0;
  }

(* Series-stacked topologies: stack of [k] devices is sized k-up so the
   worst-case pull matches the unit inverter; leakage of the stacked-off
   state is reduced by [stack_factor]. *)
let stacked_gate tech knob ~size ~inputs ~series_channel =
  if inputs < 2 then invalid_arg "Gate.stacked: inputs < 2";
  if size <= 0.0 then invalid_arg "Gate.stacked: size <= 0";
  let k = float_of_int inputs in
  let w_unit_n = size *. unit_nmos_width knob in
  let series_is_nmos = series_channel = Mosfet.Nmos in
  (* widths: series devices upsized by k; parallel devices at unit drive *)
  let w_n = if series_is_nmos then k *. w_unit_n else w_unit_n in
  let w_p = if series_is_nmos then 2.0 *. w_unit_n else k *. 2.0 *. w_unit_n in
  let n = Mosfet.make knob ~channel:Nmos ~w:w_n in
  let p = Mosfet.make knob ~channel:Pmos ~w:w_p in
  let r_series =
    if series_is_nmos then k *. Drive.effective_resistance tech n
    else k *. Drive.effective_resistance tech p
  in
  let r_parallel =
    if series_is_nmos then Drive.effective_resistance tech p
    else Drive.effective_resistance tech n
  in
  let r_drive = 0.5 *. (r_series +. r_parallel) in
  (* c_in per pin: one NMOS gate + one PMOS gate *)
  let c_in = Drive.gate_capacitance tech n +. Drive.gate_capacitance tech p in
  let c_self =
    (* all parallel drains + top series drain load the output *)
    let cd_n = Drive.drain_capacitance tech n in
    let cd_p = Drive.drain_capacitance tech p in
    if series_is_nmos then cd_n +. (k *. cd_p) else (k *. cd_n) +. cd_p
  in
  let vdd = tech.Tech.vdd in
  let sub_series =
    (* stacked-off state: reduced subthreshold *)
    stack_factor
    *. (if series_is_nmos then Leakage.subthreshold_off tech n
        else Leakage.subthreshold_off tech p)
    *. vdd
  in
  let sub_parallel =
    (* one parallel device off, drain at rail *)
    (if series_is_nmos then Leakage.subthreshold_off tech p
     else Leakage.subthreshold_off tech n)
    *. vdd *. k /. 2.0
  in
  let gate_terms =
    (* conducting devices tunnel; average half the pins active *)
    0.5 *. k
    *. ((Leakage.gate_on tech n *. vdd) +. (Leakage.gate_on tech p *. vdd))
    /. 2.0
  in
  let junction_terms = (Leakage.junction tech n +. Leakage.junction tech p) *. vdd in
  let g =
    (* logical effort: NAND-k = (k+2)/3, NOR-k = (2k+1)/3 *)
    if series_is_nmos then (k +. 2.0) /. 3.0 else ((2.0 *. k) +. 1.0) /. 3.0
  in
  {
    r_drive;
    c_in;
    c_self;
    leak_w = 0.5 *. (sub_series +. sub_parallel) +. gate_terms +. junction_terms;
    area = float_of_int inputs *. pair_area knob ~w_n ~w_p /. 2.0;
    logical_effort = g;
  }

let nand tech knob ~size ~inputs = stacked_gate tech knob ~size ~inputs ~series_channel:Mosfet.Nmos
let nor tech knob ~size ~inputs = stacked_gate tech knob ~size ~inputs ~series_channel:Mosfet.Pmos

let delay g ~c_load = 0.69 *. g.r_drive *. (g.c_self +. c_load)

let switch_energy (tech : Tech.t) g ~c_load = (g.c_self +. c_load) *. tech.vdd *. tech.vdd
