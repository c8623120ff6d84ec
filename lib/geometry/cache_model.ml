module Tech = Nmcache_device.Tech
module Knob_state = Nmcache_device.Knob_state
module Units = Nmcache_physics.Units
module Gate = Nmcache_circuit.Gate
module Wire = Nmcache_circuit.Wire
module Chain = Nmcache_circuit.Chain
module Sram_cell = Nmcache_circuit.Sram_cell
module Sense_amp = Nmcache_circuit.Sense_amp

type t = {
  tech : Tech.t;
  config : Config.t;
  org : Org.t;
  reference : Component.knob;
  (* what the knob being evaluated does not change, computed in [make] *)
  factors : Knob_state.tech_factors;
  rows_sub : int;
  cols_sub : float;
  reference_cell : Sram_cell.t;
  reference_wordline_c : float;  (* the decoder's load *)
  driver_length : float;         (* the bus drivers' wire *)
}

let default_reference = Component.knob ~vth:0.30 ~tox:(Units.angstrom 12.0)

let tech t = t.tech
let config t = t.config
let org t = t.org
let reference t = t.reference

(* ------------------------------------------------------------------ *)
(* Geometry helpers                                                    *)

(* The device state every component built at knob [k] shares. *)
let knob_state t (k : Component.knob) = Knob_state.at t.factors ~vth:k.vth ~tox:k.tox

(* Floorplan dimensions with cells of [cell] (cells set the pitch).  A
   15% routing/overhead factor is applied per dimension. *)
let floorplan_of t (cell : Sram_cell.t) =
  let gx, gy = Org.grid t.org in
  let rs = float_of_int t.rows_sub in
  let width = 1.15 *. float_of_int gx *. t.cols_sub *. cell.width in
  let height = 1.15 *. float_of_int gy *. rs *. cell.height in
  (width, height)

let floorplan t = floorplan_of t t.reference_cell

(* Wordline capacitance of one subarray with cells of [cell]. *)
let wordline_cap t (cell : Sram_cell.t) =
  let cs = t.cols_sub in
  let wire_c = t.tech.Tech.wire_c_per_m *. (cs *. cell.width) in
  (cs *. Sram_cell.gate_load t.tech cell) +. wire_c

let wordline_res t (cell : Sram_cell.t) = t.tech.Tech.wire_r_per_m *. (t.cols_sub *. cell.width)

(* Sense amplifiers: 4:1 column multiplexing, every subarray carries its
   own amps. *)
let bitline_mux = 4.0

let sense_amp_count t = float_of_int (Org.n_subarrays t.org) *. t.cols_sub /. bitline_mux

(* ------------------------------------------------------------------ *)
(* Component models                                                    *)

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

type array_timing = {
  wordline_r : float;
  wordline_c : float;
  wordline_delay : float;
  bitline_c : float;
  sense_c_in : float;
  sense_swing : float;
  read_current : float;
  bitline_delay : float;
  sense_delay : float;
}

(* The array's timing closed forms, from a cell and sense amp already
   built at one knob. *)
let array_timing_of t (cell : Sram_cell.t) (sa : Sense_amp.t) =
  let tech = t.tech in
  let rs = float_of_int t.rows_sub in
  (* wordline propagation across the selected subarray (driver delay is
     accounted in the decoder component) *)
  let wordline_r = wordline_res t cell in
  let wordline_c = wordline_cap t cell in
  (* bitline: current-source discharge to the sense threshold *)
  let bitline_c =
    rs
    *. (Sram_cell.drain_load tech cell
       +. (tech.Tech.wire_c_per_m *. cell.height))
  in
  let sense_c_in = sa.Sense_amp.c_input in
  let sense_swing = Sense_amp.sense_swing *. tech.Tech.vdd in
  let read_current = Sram_cell.read_current tech cell in
  {
    wordline_r;
    wordline_c;
    wordline_delay = 0.38 *. wordline_r *. wordline_c;
    bitline_c;
    sense_c_in;
    sense_swing;
    read_current;
    bitline_delay = (bitline_c +. sense_c_in) *. sense_swing /. read_current;
    sense_delay = sa.Sense_amp.delay;
  }

let array_timing t k =
  let knob = knob_state t k in
  array_timing_of t (Sram_cell.make knob) (Sense_amp.make t.tech knob)

(* Memory-cell array + sense amplifiers. *)
let eval_array t knob =
  let tech = t.tech in
  let cell = Sram_cell.make knob in
  let cs = t.cols_sub in
  let n_cells = float_of_int (Config.total_cells t.config) in
  let sa = Sense_amp.make tech knob in
  let at = array_timing_of t cell sa in
  let delay = at.wordline_delay +. at.bitline_delay +. at.sense_delay in
  (* leakage: every cell, every sense amp *)
  let leak =
    (n_cells *. Sram_cell.leakage_power tech cell)
    +. (sense_amp_count t *. sa.Sense_amp.leak_w)
  in
  (* dynamic energy of a read: one wordline full swing, the active
     subarray's bitlines through the sense swing (precharge + evaluate),
     and the active sense amps *)
  let vdd = tech.Tech.vdd in
  let e_wordline = at.wordline_c *. vdd *. vdd in
  let e_bitlines = 2.0 *. cs *. (at.bitline_c +. at.sense_c_in) *. vdd *. at.sense_swing in
  let e_sense = cs /. bitline_mux *. sa.Sense_amp.energy in
  let area =
    (1.25 *. n_cells *. Sram_cell.area cell) +. (sense_amp_count t *. sa.Sense_amp.area)
  in
  {
    Component.delay;
    leak_w = leak;
    dyn_energy = e_wordline +. e_bitlines +. e_sense;
    area;
  }

(* Row decoder: predecoders (3-bit NAND groups), per-row combining gate,
   wordline driver chain sized for the reference wordline load. *)
let eval_decoder t knob =
  let tech = t.tech in
  let rs = t.rows_sub in
  let n_idx = max 1 (log2_ceil rs) in
  let n_groups = (n_idx + 2) / 3 in
  let group_bits i =
    (* distribute bits over groups as evenly as possible *)
    let base = n_idx / n_groups and extra = n_idx mod n_groups in
    if i < extra then base + 1 else base
  in
  let row_gate = Gate.nand tech knob ~size:1.0 ~inputs:(max 2 n_groups) in
  let wl_chain =
    Chain.with_first_gate tech knob ~first:row_gate ~c_load:t.reference_wordline_c
  in
  (* predecode stage: each group is a bank of NAND(bits) gates; one
     output drives rows/2^bits row-gate pins plus wire down the
     subarray edge *)
  let predecode_delay = ref 0.0 in
  let predecode_leak = ref 0.0 in
  let predecode_area = ref 0.0 in
  let predecode_energy = ref 0.0 in
  for i = 0 to n_groups - 1 do
    let bits = max 1 (group_bits i) in
    let fan_in = max 2 bits in
    let bank = Gate.nand tech knob ~size:4.0 ~inputs:fan_in in
    let n_gates = 1 lsl bits in
    let loads = float_of_int rs /. float_of_int n_gates in
    let wire =
      Wire.make tech ~length:(float_of_int rs *. t.reference_cell.height)
    in
    let c_load = (loads *. row_gate.Gate.c_in) +. wire.Wire.c_total in
    let d = Gate.delay bank ~c_load in
    if d > !predecode_delay then predecode_delay := d;
    predecode_leak := !predecode_leak +. (float_of_int n_gates *. bank.Gate.leak_w);
    predecode_area := !predecode_area +. (float_of_int n_gates *. bank.Gate.area);
    (* two predecode outputs toggle per access (old and new selection) *)
    predecode_energy :=
      !predecode_energy +. (2.0 *. Gate.switch_energy tech bank ~c_load /. float_of_int n_groups)
  done;
  let n_sub = float_of_int (Org.n_subarrays t.org) in
  let rows_f = float_of_int rs in
  let delay = !predecode_delay +. wl_chain.Chain.delay in
  let leak = n_sub *. (!predecode_leak +. (rows_f *. wl_chain.Chain.leak_w)) in
  let dyn = !predecode_energy +. wl_chain.Chain.energy in
  let area = n_sub *. (!predecode_area +. (rows_f *. wl_chain.Chain.area)) in
  { Component.delay; leak_w = leak; dyn_energy = dyn; area }

(* Repeated-wire driver groups (address in, data out). *)
let eval_drivers t knob ~bits ~extra_load =
  let tech = t.tech in
  let rep = Wire.repeated tech knob ~length:t.driver_length in
  let final =
    if extra_load > 0.0 then
      (* a buffer chain from a 4x inverter *)
      let first = Gate.inverter tech knob ~size:4.0 in
      Some (Chain.with_first_gate tech knob ~first ~c_load:extra_load)
    else None
  in
  let fdelay, fleak, fenergy, farea =
    match final with
    | None -> (0.0, 0.0, 0.0, 0.0)
    | Some c -> (c.Chain.delay, c.Chain.leak_w, c.Chain.energy, c.Chain.area)
  in
  let bits_f = float_of_int bits in
  (* activity: roughly half the bus toggles per access *)
  let activity = 0.5 in
  {
    Component.delay = rep.Wire.delay +. fdelay;
    leak_w = bits_f *. (rep.Wire.leak_w +. fleak);
    dyn_energy = activity *. bits_f *. (rep.Wire.energy_per_transition +. fenergy);
    area = bits_f *. (rep.Wire.area +. farea);
  }

let eval_addr_drivers t k =
  eval_drivers t k ~bits:t.config.Config.addr_bits ~extra_load:0.0

let eval_data_drivers t k =
  (* each output bit finally drives an off-component load (latch / bus) *)
  eval_drivers t k ~bits:t.config.Config.output_bits ~extra_load:(Units.ff 25.0)

let evaluate_component t kind k =
  let knob = knob_state t k in
  match (kind : Component.kind) with
  | Component.Array_sense -> eval_array t knob
  | Component.Decoder -> eval_decoder t knob
  | Component.Addr_drivers -> eval_addr_drivers t knob
  | Component.Data_drivers -> eval_data_drivers t knob

(* ------------------------------------------------------------------ *)

type report = {
  components : (Component.kind * Component.summary) list;
  access_time : float;
  leak_w : float;
  dyn_read_energy : float;
  area : float;
}

let evaluate t (a : Component.assignment) =
  let components =
    List.map
      (fun kind -> (kind, evaluate_component t kind (Component.get a kind)))
      Component.all_kinds
  in
  let total =
    List.fold_left
      (fun acc (_, s) -> Component.add_summary acc s)
      Component.zero_summary components
  in
  {
    components;
    access_time = total.Component.delay;
    leak_w = total.Component.leak_w;
    dyn_read_energy = total.Component.dyn_energy;
    area = total.Component.area;
  }

let characterize t kind ~vths ~toxs =
  Array.concat
    (Array.to_list
       (Array.map
          (fun vth ->
            Array.map
              (fun tox ->
                let k = Component.knob ~vth ~tox in
                (k, evaluate_component t kind k))
              toxs)
          vths))

(* ------------------------------------------------------------------ *)

(* The reference quantities are computed by the helpers [eval_*] use, on
   a model that does not hold them yet. *)
let make_with_org tech config org reference =
  let factors = Knob_state.tech_factors tech in
  let t =
    {
      tech;
      config;
      org;
      reference;
      factors;
      rows_sub = Org.rows_sub config org;
      cols_sub = Org.cols_sub config org;
      reference_cell =
        Sram_cell.make (Knob_state.at factors ~vth:reference.vth ~tox:reference.tox);
      reference_wordline_c = Float.nan;
      driver_length = Float.nan;
    }
  in
  let width, height = floorplan t in
  {
    t with
    reference_wordline_c = wordline_cap t t.reference_cell;
    driver_length = (width +. height) /. 2.0;
  }

let best_org ?(reference = default_reference) tech config =
  let candidates = Org.candidates config in
  let scored =
    List.map
      (fun org ->
        let m = make_with_org tech config org reference in
        let r = evaluate m (Component.uniform reference) in
        (org, r.access_time, r.area))
      candidates
  in
  let min_delay =
    List.fold_left (fun acc (_, d, _) -> Float.min acc d) Float.max_float scored
  in
  let min_area =
    List.fold_left (fun acc (_, _, a) -> Float.min acc a) Float.max_float scored
  in
  let best =
    List.fold_left
      (fun acc (org, d, a) ->
        let score = d /. min_delay *. ((a /. min_area) ** 0.5) in
        match acc with
        | Some (_, s) when s <= score -> acc
        | _ -> Some (org, score))
      None scored
  in
  match best with
  | Some (org, _) -> org
  | None -> Org.make ~ndwl:1 ~ndbl:1

let make ?(reference = default_reference) ?org tech config =
  Tech.check_knobs tech ~vth:reference.Component.vth ~tox:reference.Component.tox;
  let org =
    match org with Some o -> o | None -> best_org ~reference tech config
  in
  make_with_org tech config org reference
