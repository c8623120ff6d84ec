module Tech = Nmcache_device.Tech

type t = {
  delay : float;
  leak_w : float;
  energy : float;
  c_input : float;
  area : float;
}

let sense_swing = 0.1

let make (tech : Tech.t) knob =
  let inv = Gate.inverter tech knob ~size:2.0 in
  (* latch regeneration: ~3 time constants of the cross-coupled pair,
     resolving from the sense swing to half-rail *)
  let tau = inv.Gate.r_drive *. (inv.Gate.c_in +. inv.Gate.c_self) in
  let gain_stages = Float.log (0.5 /. sense_swing) in
  {
    delay = tau *. (1.0 +. gain_stages);
    (* cross-coupled pair + precharge + mux: ~2.5 inverter-equivalents *)
    leak_w = 2.5 *. inv.Gate.leak_w;
    energy = 2.0 *. (inv.Gate.c_in +. inv.Gate.c_self) *. tech.vdd *. tech.vdd;
    c_input = 0.5 *. inv.Gate.c_in;
    area = 3.0 *. inv.Gate.area;
  }
