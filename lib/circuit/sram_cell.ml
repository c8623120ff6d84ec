module Tech = Nmcache_device.Tech
module Knob_state = Nmcache_device.Knob_state
module Mosfet = Nmcache_device.Mosfet
module Leakage = Nmcache_device.Leakage
module Drive = Nmcache_device.Drive

type t = {
  access : Mosfet.t;
  pulldown : Mosfet.t;
  pullup : Mosfet.t;
  width : float;
  height : float;
}

(* Classic 6T ratios in units of drawn L, and a 146 F^2 footprint. *)
let access_ratio = 1.5
let pulldown_ratio = 2.2
let pullup_ratio = 1.1
let cell_width_f = 11.0
let cell_height_f = 13.3

let make (knob : Knob_state.t) =
  let l = knob.l_drawn in
  {
    access = Mosfet.make knob ~channel:Nmos ~w:(access_ratio *. l);
    pulldown = Mosfet.make knob ~channel:Nmos ~w:(pulldown_ratio *. l);
    pullup = Mosfet.make knob ~channel:Pmos ~w:(pullup_ratio *. l);
    width = cell_width_f *. l;
    height = cell_height_f *. l;
  }

let area c = c.width *. c.height

(* Standby leakage of a cell holding a value, bitlines precharged high:
   - access transistor on the '0' node: subthreshold (BL high, node low);
   - pull-down of the '0'-storing inverter: off, subthreshold;
   - pull-up of the '1'-storing inverter: off, subthreshold;
   - the ON pull-down and ON pull-up tunnel through their gates;
   - off devices contribute the reduced overlap tunnelling term;
   - junctions everywhere (folded into the three counted devices). *)
let leakage_power (tech : Tech.t) c =
  let acc = c.access and pd = c.pulldown and pu = c.pullup in
  let vdd = tech.vdd in
  let sub =
    Leakage.subthreshold_off tech acc
    +. Leakage.subthreshold_off tech pd
    +. Leakage.subthreshold_off tech pu
  in
  let gate_on = Leakage.gate_on tech pd +. Leakage.gate_on tech pu in
  let gate_off = Leakage.gate_off tech acc +. Leakage.gate_off tech pd +. Leakage.gate_off tech pu in
  let junction =
    Leakage.junction tech acc +. Leakage.junction tech pd +. Leakage.junction tech pu
  in
  (sub +. gate_on +. gate_off +. junction) *. vdd

let read_current tech c = 0.5 *. Drive.on_current tech c.access
let gate_load tech c = 2.0 *. Drive.gate_capacitance tech c.access
let drain_load tech c = Drive.drain_capacitance tech c.access
