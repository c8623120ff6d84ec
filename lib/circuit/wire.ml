module Tech = Nmcache_device.Tech

type t = {
  length : float;
  r_total : float;
  c_total : float;
}

let make (tech : Tech.t) ~length =
  if length < 0.0 then invalid_arg "Wire.make: negative length";
  { length; r_total = tech.wire_r_per_m *. length; c_total = tech.wire_c_per_m *. length }

let elmore w ~r_driver ~c_load =
  (0.69 *. r_driver *. (w.c_total +. c_load))
  +. (0.38 *. w.r_total *. w.c_total)
  +. (0.69 *. w.r_total *. c_load)

type repeated = {
  delay : float;
  leak_w : float;
  energy_per_transition : float;
  n_repeaters : int;
  repeater_size : float;
  area : float;
}

let repeated (tech : Tech.t) knob ~length =
  let w = make tech ~length in
  let unit_inv = Gate.inverter tech knob ~size:1.0 in
  let r0 = unit_inv.Gate.r_drive and c0 = unit_inv.Gate.c_in in
  let k_opt =
    if w.r_total *. w.c_total <= 0.0 then 1.0
    else Float.sqrt (0.4 *. w.r_total *. w.c_total /. (0.7 *. r0 *. c0))
  in
  let n = max 1 (int_of_float (Float.round k_opt)) in
  let size =
    if w.r_total <= 0.0 then 1.0
    else Float.max 1.0 (Float.sqrt (r0 *. w.c_total /. (w.r_total *. c0)))
  in
  let inv = Gate.inverter tech knob ~size in
  let seg = make tech ~length:(length /. float_of_int n) in
  (* each stage: repeater driving its wire segment into the next repeater *)
  let stage_delay = elmore seg ~r_driver:inv.Gate.r_drive ~c_load:inv.Gate.c_in in
  let stage_delay = stage_delay +. (0.69 *. inv.Gate.r_drive *. inv.Gate.c_self) in
  let c_switched = w.c_total +. (float_of_int n *. (inv.Gate.c_in +. inv.Gate.c_self)) in
  {
    delay = float_of_int n *. stage_delay;
    leak_w = float_of_int n *. inv.Gate.leak_w;
    energy_per_transition = c_switched *. tech.vdd *. tech.vdd;
    n_repeaters = n;
    repeater_size = size;
    area = float_of_int n *. inv.Gate.area;
  }
