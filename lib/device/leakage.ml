let subthreshold_off (_ : Tech.t) (d : Mosfet.t) =
  let k = d.knob in
  let i_s0 = match d.channel with Mosfet.Nmos -> k.sub_n | Mosfet.Pmos -> k.sub_p in
  i_s0 *. (d.w /. k.l_eff) *. k.sub_gate *. k.sub_drain

(* the tunnelling area is W · L_drawn *)
let gate_on (_ : Tech.t) (d : Mosfet.t) =
  let k = d.knob in
  (match d.channel with Mosfet.Nmos -> k.gate_on_n | Mosfet.Pmos -> k.gate_on_p)
  *. (d.w *. k.l_drawn)

let gate_off (_ : Tech.t) (d : Mosfet.t) =
  let k = d.knob in
  (match d.channel with Mosfet.Nmos -> k.gate_off_n | Mosfet.Pmos -> k.gate_off_p)
  *. (d.w *. k.l_drawn)

let junction (tech : Tech.t) (d : Mosfet.t) =
  (* drain junction area: W x 2.5 L_ref -- the contacted-drain pitch is
     set by lithography, not by the channel, so it does not follow the
     Tox scaling rule (keeps the junction floor knob-independent) *)
  let area = d.w *. (2.5 *. tech.l_drawn_ref) in
  tech.j_junction *. area *. d.knob.junction_t

let off_state_total tech d = subthreshold_off tech d +. gate_off tech d +. junction tech d

let subthreshold_swing (tech : Tech.t) =
  tech.n_swing *. Tech.thermal_voltage tech *. Float.log 10.0
