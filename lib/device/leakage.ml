let subthreshold (tech : Tech.t) (d : Mosfet.t) ~vgs ~vds ~vsb =
  let vt = Tech.thermal_voltage tech in
  let n = tech.n_swing in
  let cox = Tech.cox tech ~tox:d.tox in
  let mu = Mosfet.mobility tech d in
  let i_s0 = mu *. cox *. (n -. 1.0) *. vt *. vt in
  let vth = Mosfet.vth_eff tech d ~vds ~vsb in
  let wl = d.w /. Mosfet.l_eff tech d in
  i_s0 *. wl
  *. Float.exp ((vgs -. vth) /. (n *. vt))
  *. (1.0 -. Float.exp (-.vds /. vt))

let subthreshold_off tech d = subthreshold tech d ~vgs:0.0 ~vds:tech.Tech.vdd ~vsb:0.0

let gate (tech : Tech.t) (d : Mosfet.t) ~vox =
  if vox <= 0.0 then 0.0
  else begin
    let channel_factor = match d.channel with Mosfet.Nmos -> 1.0 | Mosfet.Pmos -> 0.4 in
    let j =
      tech.j_gate_ref
      *. ((vox /. tech.vdd) ** 2.0)
      *. Float.exp (-.tech.b_gate *. (d.tox -. tech.tox_ref))
    in
    channel_factor *. j *. Mosfet.gate_area tech d
  end

let gate_on (tech : Tech.t) d = gate tech d ~vox:tech.vdd

let junction (tech : Tech.t) (d : Mosfet.t) =
  (* drain junction area: W x 2.5 L_ref -- the contacted-drain pitch is
     set by lithography, not by the channel, so it does not follow the
     Tox scaling rule (keeps the junction floor knob-independent) *)
  let area = d.w *. (2.5 *. tech.l_drawn_ref) in
  (* weak exponential temperature activation (~2x per 25 K) *)
  let t_factor =
    Float.exp ((tech.temp_k -. Nmcache_physics.Constants.room_temperature) /. 36.0)
  in
  tech.j_junction *. area *. t_factor

let off_state_total (tech : Tech.t) d =
  (* In the off state the gate-drain overlap still tunnels at a reduced
     oxide voltage; 1/3 of Vdd captures the usual EDP-style estimate. *)
  subthreshold_off tech d +. gate tech d ~vox:(tech.vdd /. 3.0) +. junction tech d

let subthreshold_swing (tech : Tech.t) =
  tech.n_swing *. Tech.thermal_voltage tech *. Float.log 10.0
