(* Tests for the circuit layer: gates, wires, SRAM cell, sense amp,
   buffer chains. *)

module Units = Nmcache_physics.Units
module Tech = Nmcache_device.Tech
module Knob_state = Nmcache_device.Knob_state
module Gate = Nmcache_circuit.Gate
module Wire = Nmcache_circuit.Wire
module Chain = Nmcache_circuit.Chain
module Sram_cell = Nmcache_circuit.Sram_cell
module Sense_amp = Nmcache_circuit.Sense_amp

let tech = Tech.bptm65
let a = Units.angstrom

(* the device state every gate, wire, cell and sense amp of one knob
   is built on *)
let at ~vth ~tox = Knob_state.make tech ~vth ~tox

let close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.6g vs %.6g" msg expected actual)
    true
    (Float.abs (expected -. actual) <= eps *. Float.max 1e-30 (Float.abs expected))

(* --- gates -------------------------------------------------------------- *)

let test_inverter_sizing () =
  let g1 = Gate.inverter tech (at ~vth:0.3 ~tox:(a 12.0)) ~size:1.0 in
  let g4 = Gate.inverter tech (at ~vth:0.3 ~tox:(a 12.0)) ~size:4.0 in
  close "4x input cap" 4.0 (g4.Gate.c_in /. g1.Gate.c_in) ~eps:1e-6;
  close "1/4 resistance" 0.25 (g4.Gate.r_drive /. g1.Gate.r_drive) ~eps:1e-6;
  Alcotest.(check bool) "4x leakage" true
    (Float.abs ((g4.Gate.leak_w /. g1.Gate.leak_w) -. 4.0) < 0.2)

let test_gate_delay_monotone_in_load () =
  let g = Gate.inverter tech (at ~vth:0.3 ~tox:(a 12.0)) ~size:2.0 in
  Alcotest.(check bool) "more load, more delay" true
    (Gate.delay g ~c_load:(Units.ff 10.0) > Gate.delay g ~c_load:(Units.ff 1.0))

let test_nand_nor_efforts () =
  let nand2 = Gate.nand tech (at ~vth:0.3 ~tox:(a 12.0)) ~size:1.0 ~inputs:2 in
  let nor2 = Gate.nor tech (at ~vth:0.3 ~tox:(a 12.0)) ~size:1.0 ~inputs:2 in
  close "nand2 logical effort" (4.0 /. 3.0) nand2.Gate.logical_effort ~eps:1e-9;
  close "nor2 logical effort" (5.0 /. 3.0) nor2.Gate.logical_effort ~eps:1e-9;
  Alcotest.(check bool) "nor worse than nand" true
    (nor2.Gate.logical_effort > nand2.Gate.logical_effort)

let test_stack_effect () =
  (* a 2-stack leaks less per width than the same devices in an inverter;
     probe at the subthreshold-dominated corner (thick oxide) where the
     stack factor is the visible effect *)
  let inv = Gate.inverter tech (at ~vth:0.25 ~tox:(a 14.0)) ~size:1.0 in
  let nand = Gate.nand tech (at ~vth:0.25 ~tox:(a 14.0)) ~size:1.0 ~inputs:2 in
  (* nand has ~2x the device width of the inverter; its leakage should be
     well under 2x thanks to the stack factor *)
  Alcotest.(check bool) "stack suppresses leakage" true
    (nand.Gate.leak_w < 2.0 *. inv.Gate.leak_w)

let test_gate_validation () =
  Alcotest.(check bool) "inputs < 2 rejected" true
    (try
       ignore (Gate.nand tech (at ~vth:0.3 ~tox:(a 12.0)) ~size:1.0 ~inputs:1);
       false
     with Invalid_argument _ -> true)

(* --- wire ----------------------------------------------------------------- *)

let test_wire_scaling () =
  let w1 = Wire.make tech ~length:(Units.um 100.0) in
  let w2 = Wire.make tech ~length:(Units.um 200.0) in
  close "r scales" 2.0 (w2.Wire.r_total /. w1.Wire.r_total) ~eps:1e-9;
  close "c scales" 2.0 (w2.Wire.c_total /. w1.Wire.c_total) ~eps:1e-9

let test_repeaters_beat_unrepeated_long_wire () =
  let length = Units.mm 4.0 in
  let w = Wire.make tech ~length in
  let inv = Gate.inverter tech (at ~vth:0.25 ~tox:(a 11.0)) ~size:8.0 in
  let unrepeated = Wire.elmore w ~r_driver:inv.Gate.r_drive ~c_load:(Units.ff 5.0) in
  let rep = Wire.repeated tech (at ~vth:0.25 ~tox:(a 11.0)) ~length in
  Alcotest.(check bool) "repeating helps on mm-scale wire" true
    (rep.Wire.delay < unrepeated);
  Alcotest.(check bool) "uses several repeaters" true (rep.Wire.n_repeaters >= 4)

let test_repeated_wire_monotone_in_length () =
  let d len = (Wire.repeated tech (at ~vth:0.3 ~tox:(a 12.0)) ~length:len).Wire.delay in
  Alcotest.(check bool) "longer is slower" true
    (d (Units.um 200.0) < d (Units.um 400.0) && d (Units.um 400.0) < d (Units.um 800.0))

(* --- sram cell -------------------------------------------------------------- *)

let test_cell_area_scales_with_tox () =
  let small = Sram_cell.make (at ~vth:0.3 ~tox:(a 10.0)) in
  let big = Sram_cell.make (at ~vth:0.3 ~tox:(a 14.0)) in
  let expected = (14.0 /. 10.0) ** (2.0 *. tech.Tech.l_scaling_exponent) in
  close "area ratio follows scaling rule"
    expected
    (Sram_cell.area big /. Sram_cell.area small)
    ~eps:1e-6;
  Alcotest.(check bool) "both dimensions grow" true
    (big.Sram_cell.width > small.Sram_cell.width
    && big.Sram_cell.height > small.Sram_cell.height)

let test_cell_area_magnitude () =
  (* 65nm 6T cell ~ 0.4..1 um2 *)
  let c = Sram_cell.make (at ~vth:0.3 ~tox:(a 12.0)) in
  let um2 = Sram_cell.area c /. 1e-12 in
  Alcotest.(check bool) (Printf.sprintf "cell %.3f um2" um2) true (um2 > 0.2 && um2 < 1.5)

let test_cell_leakage_monotone () =
  let leak vth tox_a = Sram_cell.leakage_power tech (Sram_cell.make (at ~vth ~tox:(a tox_a))) in
  Alcotest.(check bool) "dec in vth" true (leak 0.45 12.0 < leak 0.25 12.0);
  Alcotest.(check bool) "dec in tox" true (leak 0.3 13.5 < leak 0.3 10.5)

let test_cell_read_current () =
  let c = Sram_cell.make (at ~vth:0.3 ~tox:(a 12.0)) in
  let i = Sram_cell.read_current tech c in
  (* tens of uA for a 65nm cell *)
  Alcotest.(check bool) "read current 5..500 uA" true (i > 5e-6 && i < 5e-4)

(* --- sense amp ----------------------------------------------------------------- *)

let test_sense_amp () =
  let sa = Sense_amp.make tech (at ~vth:0.3 ~tox:(a 12.0)) in
  Alcotest.(check bool) "positive delay" true (sa.Sense_amp.delay > 0.0);
  Alcotest.(check bool) "delay < 100 ps" true (sa.Sense_amp.delay < Units.ps 100.0);
  Alcotest.(check bool) "positive leakage" true (sa.Sense_amp.leak_w > 0.0);
  let sa_hi = Sense_amp.make tech (at ~vth:0.45 ~tox:(a 14.0)) in
  Alcotest.(check bool) "conservative knobs leak less" true
    (sa_hi.Sense_amp.leak_w < sa.Sense_amp.leak_w)

(* --- chain ------------------------------------------------------------------------ *)

let test_chain_drives_large_load () =
  let unit = Gate.inverter tech (at ~vth:0.3 ~tox:(a 12.0)) ~size:1.0 in
  let chain =
    Chain.buffer tech (at ~vth:0.3 ~tox:(a 12.0)) ~c_in:unit.Gate.c_in ~c_load:(Units.ff 200.0)
  in
  Alcotest.(check bool) "several stages" true (chain.Chain.n_stages >= 3);
  (* a chain must beat the unit inverter driving the load directly *)
  let direct = Gate.delay unit ~c_load:(Units.ff 200.0) in
  Alcotest.(check bool) "chain faster than direct drive" true (chain.Chain.delay < direct)

let test_chain_stage_effort_reasonable () =
  let unit = Gate.inverter tech (at ~vth:0.3 ~tox:(a 12.0)) ~size:1.0 in
  let chain =
    Chain.buffer tech (at ~vth:0.3 ~tox:(a 12.0)) ~c_in:unit.Gate.c_in ~c_load:(Units.ff 100.0)
  in
  Alcotest.(check bool) "effort near 4" true
    (chain.Chain.stage_effort > 2.0 && chain.Chain.stage_effort < 8.0)

let test_chain_validation () =
  Alcotest.(check bool) "c_in <= 0 rejected" true
    (try
       ignore (Chain.buffer tech (at ~vth:0.3 ~tox:(a 12.0)) ~c_in:0.0 ~c_load:1e-15);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "inverter sizing" `Quick test_inverter_sizing;
    Alcotest.test_case "gate delay monotone in load" `Quick test_gate_delay_monotone_in_load;
    Alcotest.test_case "nand/nor logical effort" `Quick test_nand_nor_efforts;
    Alcotest.test_case "stack effect" `Quick test_stack_effect;
    Alcotest.test_case "gate validation" `Quick test_gate_validation;
    Alcotest.test_case "wire scaling" `Quick test_wire_scaling;
    Alcotest.test_case "repeaters beat bare wire" `Quick
      test_repeaters_beat_unrepeated_long_wire;
    Alcotest.test_case "repeated wire monotone" `Quick test_repeated_wire_monotone_in_length;
    Alcotest.test_case "cell area scales with tox" `Quick test_cell_area_scales_with_tox;
    Alcotest.test_case "cell area magnitude" `Quick test_cell_area_magnitude;
    Alcotest.test_case "cell leakage monotone" `Quick test_cell_leakage_monotone;
    Alcotest.test_case "cell read current" `Quick test_cell_read_current;
    Alcotest.test_case "sense amplifier" `Quick test_sense_amp;
    Alcotest.test_case "buffer chain drives load" `Quick test_chain_drives_large_load;
    Alcotest.test_case "chain stage effort" `Quick test_chain_stage_effort_reasonable;
    Alcotest.test_case "chain validation" `Quick test_chain_validation;
  ]
