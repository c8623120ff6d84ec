module Tech = Nmcache_device.Tech

type t = {
  delay : float;
  leak_w : float;
  energy : float;
  area : float;
  n_stages : int;
  stage_effort : float;
}

(* Generic chain: [first] is the initial gate (logical effort g, input
   cap c_in); inverters are appended until per-stage effort is near 4. *)
let build (tech : Tech.t) knob ~(first : Gate.t) ~c_load =
  if first.Gate.c_in <= 0.0 then invalid_arg "Chain: c_in <= 0";
  if c_load < 0.0 then invalid_arg "Chain: c_load < 0";
  let path_effort =
    first.Gate.logical_effort *. Float.max 1.0 (c_load /. first.Gate.c_in)
  in
  let n_extra =
    (* total stages n chosen so effort^(1/n) ~ 4 *)
    let n_total = Float.max 1.0 (Float.round (Float.log path_effort /. Float.log 4.0)) in
    max 0 (int_of_float n_total - 1)
  in
  let n_total = n_extra + 1 in
  let stage_effort = path_effort ** (1.0 /. float_of_int n_total) in
  let unit = Gate.inverter tech knob ~size:1.0 in
  (* walk the chain accumulating delay, leakage, energy, area *)
  let rec walk i prev_gate (size : float) acc_delay acc_leak acc_energy acc_area =
    if i > n_extra then begin
      let d = Gate.delay prev_gate ~c_load in
      let e = Gate.switch_energy tech prev_gate ~c_load:0.0 in
      (acc_delay +. d, acc_leak, acc_energy +. e, acc_area)
    end
    else begin
      let next_size = size *. stage_effort /. 1.0 in
      let next = Gate.inverter tech knob ~size:(Float.max 1.0 next_size) in
      let d = Gate.delay prev_gate ~c_load:next.Gate.c_in in
      let e = Gate.switch_energy tech prev_gate ~c_load:next.Gate.c_in in
      walk (i + 1) next next_size (acc_delay +. d) (acc_leak +. next.Gate.leak_w)
        (acc_energy +. e) (acc_area +. next.Gate.area)
    end
  in
  let first_size = Float.max 1.0 (first.Gate.c_in /. unit.Gate.c_in) in
  let delay, leak, energy, area =
    walk 1 first first_size 0.0 first.Gate.leak_w 0.0 first.Gate.area
  in
  { delay; leak_w = leak; energy; area; n_stages = n_total; stage_effort }

let with_first_gate tech knob ~first ~c_load = build tech knob ~first ~c_load

let buffer tech knob ~c_in ~c_load =
  if c_in <= 0.0 then invalid_arg "Chain.buffer: c_in <= 0";
  let unit = Gate.inverter tech knob ~size:1.0 in
  let size = Float.max 1.0 (c_in /. unit.Gate.c_in) in
  let first = Gate.inverter tech knob ~size in
  build tech knob ~first ~c_load
