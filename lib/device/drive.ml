let on_current (_ : Tech.t) (d : Mosfet.t) =
  let k = d.knob in
  if k.overdrive <= 0.0 then 1e-12
  else
    (match d.channel with Mosfet.Nmos -> k.on_n | Mosfet.Pmos -> k.on_p)
    *. (d.w /. k.l_eff)
    *. k.on_overdrive

let effective_resistance (tech : Tech.t) d = 0.75 *. tech.vdd /. on_current tech d

let gate_capacitance (tech : Tech.t) (d : Mosfet.t) =
  (d.knob.cox *. d.w *. d.knob.l_drawn) +. (2.0 *. tech.c_overlap *. d.w)

let drain_capacitance (tech : Tech.t) (d : Mosfet.t) =
  (tech.c_junction *. d.w) +. (tech.c_overlap *. d.w)

let fo4_delay (tech : Tech.t) ~vth ~tox =
  let knob = Knob_state.make tech ~vth ~tox in
  let w_n = 2.0 *. knob.l_drawn in
  let n = Mosfet.make knob ~channel:Nmos ~w:w_n in
  let p = Mosfet.make knob ~channel:Pmos ~w:(2.0 *. w_n) in
  let c_in = gate_capacitance tech n +. gate_capacitance tech p in
  let c_self = drain_capacitance tech n +. drain_capacitance tech p in
  (* average pull-up/pull-down resistance of the inverter *)
  let r = 0.5 *. (effective_resistance tech n +. effective_resistance tech p) in
  0.69 *. r *. (c_self +. (4.0 *. c_in))
