(* Unit + property tests for the device models: the physics that the
   whole study rests on.  Monotonicities here are the load-bearing
   invariants — the optimiser's correctness assumes them. *)

module Units = Nmcache_physics.Units
module Tech = Nmcache_device.Tech
module Mosfet = Nmcache_device.Mosfet
module Leakage = Nmcache_device.Leakage
module Drive = Nmcache_device.Drive

let tech = Tech.bptm65
let w = Units.um 1.0

let nmos ~vth ~tox_a = Mosfet.nmos tech ~w ~vth ~tox:(Units.angstrom tox_a)

let knob_arb = Generators.knob_arb

let test_subthreshold_swing () =
  (* per decade of subthreshold current: n vT ln10 *)
  let swing = Leakage.subthreshold_swing tech in
  Alcotest.(check bool) "swing in 75..100 mV/dec at 300K" true
    (swing > 0.075 && swing < 0.100);
  (* verify the model actually honours it: raising vth by one swing
     drops current 10x *)
  let d1 = nmos ~vth:0.25 ~tox_a:12.0 in
  let d2 = nmos ~vth:(0.25 +. swing) ~tox_a:12.0 in
  let ratio = Leakage.subthreshold_off tech d1 /. Leakage.subthreshold_off tech d2 in
  Alcotest.(check bool)
    (Printf.sprintf "decade per swing (got %.2f)" ratio)
    true
    (Float.abs (ratio -. 10.0) < 0.01)

let test_subthreshold_magnitudes () =
  let low = Leakage.subthreshold_off tech (nmos ~vth:0.2 ~tox_a:12.0) in
  let high = Leakage.subthreshold_off tech (nmos ~vth:0.5 ~tox_a:12.0) in
  Alcotest.(check bool) "low-Vth in 0.05..10 uA/um" true
    (low > Units.ua 0.05 && low < Units.ua 10.0);
  Alcotest.(check bool) "high-Vth in 0.005..10 nA/um" true
    (high > Units.na 0.005 && high < Units.na 10.0)

let test_gate_leakage_slope () =
  (* ~one decade per ~1.1 A of oxide *)
  let thin = Leakage.gate_on tech (nmos ~vth:0.3 ~tox_a:10.0) in
  let thick = Leakage.gate_on tech (nmos ~vth:0.3 ~tox_a:14.0) in
  let decades = Float.log10 (thin /. thick) in
  Alcotest.(check bool)
    (Printf.sprintf "3..5 decades over 4A (got %.2f)" decades)
    true
    (decades > 3.0 && decades < 5.0)

let test_gate_surpasses_subthreshold_at_thin_tox () =
  (* the paper's premise: at aggressive oxide, gate leakage overtakes
     subthreshold (here at mid/high Vth) *)
  let d = nmos ~vth:0.4 ~tox_a:10.0 in
  Alcotest.(check bool) "gate > sub at (0.4V, 10A)" true
    (Leakage.gate_on tech d > Leakage.subthreshold_off tech d);
  let d' = nmos ~vth:0.4 ~tox_a:14.0 in
  Alcotest.(check bool) "gate < sub at (0.4V, 14A)" true
    (Leakage.gate_on tech d' < Leakage.subthreshold_off tech d')

let test_pmos_weaker () =
  let n = Mosfet.nmos tech ~w ~vth:0.3 ~tox:(Units.angstrom 12.0) in
  let p = Mosfet.pmos tech ~w ~vth:0.3 ~tox:(Units.angstrom 12.0) in
  Alcotest.(check bool) "pmos drives less" true
    (Drive.on_current tech p < Drive.on_current tech n);
  Alcotest.(check bool) "pmos tunnels less" true
    (Leakage.gate_on tech p < Leakage.gate_on tech n)

let test_on_current_magnitude () =
  let i = Drive.on_current tech (nmos ~vth:0.25 ~tox_a:12.0) in
  Alcotest.(check bool) "Ion ~ 0.3..3 mA/um" true (i > 0.3e-3 && i < 3e-3)

let test_temperature_raises_subthreshold () =
  let hot = Tech.with_temperature tech ~temp_k:358.0 in
  let at tech = Mosfet.nmos tech ~w ~vth:0.35 ~tox:(Units.angstrom 12.0) in
  Alcotest.(check bool) "hotter leaks more" true
    (Leakage.subthreshold_off tech (at tech) < Leakage.subthreshold_off hot (at hot))

let test_scaling_rule () =
  let l10 = Tech.l_drawn tech ~tox:(Units.angstrom 10.0) in
  let l12 = Tech.l_drawn tech ~tox:(Units.angstrom 12.0) in
  let l14 = Tech.l_drawn tech ~tox:(Units.angstrom 14.0) in
  Alcotest.(check bool) "L grows with Tox" true (l10 < l12 && l12 < l14);
  let expected = tech.Tech.l_drawn_ref *. ((14.0 /. 12.0) ** tech.Tech.l_scaling_exponent) in
  Alcotest.(check bool) "scaling exponent honoured" true
    (Float.abs (l14 -. expected) /. expected < 1e-12)

let test_knob_validation () =
  Alcotest.(check bool) "vth below range rejected" true
    (try
       ignore (nmos ~vth:0.1 ~tox_a:12.0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "tox above range rejected" true
    (try
       ignore (nmos ~vth:0.3 ~tox_a:15.0);
       false
     with Invalid_argument _ -> true)

let test_fo4_range () =
  let fast = Drive.fo4_delay tech ~vth:0.2 ~tox:(Units.angstrom 10.0) in
  let slow = Drive.fo4_delay tech ~vth:0.5 ~tox:(Units.angstrom 14.0) in
  Alcotest.(check bool) "FO4 in 3..60 ps" true (fast > Units.ps 3.0 && slow < Units.ps 60.0);
  Alcotest.(check bool) "slow corner slower" true (slow > fast)

(* --- monotonicity properties ----------------------------------------- *)

let prop_sub_decreasing_in_vth =
  QCheck.Test.make ~count:200 ~name:"subthreshold decreasing in Vth" knob_arb
    (fun (vth, tox_a) ->
      QCheck.assume (vth +. 0.01 <= tech.Tech.vth_max);
      Leakage.subthreshold_off tech (nmos ~vth:(vth +. 0.01) ~tox_a)
      < Leakage.subthreshold_off tech (nmos ~vth ~tox_a))

let prop_gate_decreasing_in_tox =
  QCheck.Test.make ~count:200 ~name:"gate leakage decreasing in Tox" knob_arb
    (fun (vth, tox_a) ->
      QCheck.assume (tox_a +. 0.1 <= 14.0);
      Leakage.gate_on tech (nmos ~vth ~tox_a:(tox_a +. 0.1))
      < Leakage.gate_on tech (nmos ~vth ~tox_a))

let prop_total_off_decreasing_in_both =
  QCheck.Test.make ~count:200 ~name:"total off-state leakage decreasing in both knobs"
    knob_arb (fun (vth, tox_a) ->
      QCheck.assume (vth +. 0.02 <= tech.Tech.vth_max && tox_a +. 0.2 <= 14.0);
      Leakage.off_state_total tech (nmos ~vth:(vth +. 0.02) ~tox_a:(tox_a +. 0.2))
      < Leakage.off_state_total tech (nmos ~vth ~tox_a))

let prop_ion_decreasing_in_vth =
  QCheck.Test.make ~count:200 ~name:"on-current decreasing in Vth" knob_arb
    (fun (vth, tox_a) ->
      QCheck.assume (vth +. 0.01 <= tech.Tech.vth_max);
      Drive.on_current tech (nmos ~vth:(vth +. 0.01) ~tox_a)
      < Drive.on_current tech (nmos ~vth ~tox_a))

let prop_fo4_increasing =
  QCheck.Test.make ~count:200 ~name:"FO4 increasing in both knobs" knob_arb
    (fun (vth, tox_a) ->
      QCheck.assume (vth +. 0.02 <= tech.Tech.vth_max && tox_a +. 0.2 <= 14.0);
      Drive.fo4_delay tech ~vth:(vth +. 0.02) ~tox:(Units.angstrom (tox_a +. 0.2))
      > Drive.fo4_delay tech ~vth ~tox:(Units.angstrom tox_a))

let qcheck =
  List.map Generators.to_alcotest
    [
      prop_sub_decreasing_in_vth;
      prop_gate_decreasing_in_tox;
      prop_total_off_decreasing_in_both;
      prop_ion_decreasing_in_vth;
      prop_fo4_increasing;
    ]

let suite =
  [
    Alcotest.test_case "subthreshold swing" `Quick test_subthreshold_swing;
    Alcotest.test_case "subthreshold magnitudes" `Quick test_subthreshold_magnitudes;
    Alcotest.test_case "gate leakage slope" `Quick test_gate_leakage_slope;
    Alcotest.test_case "gate overtakes sub at thin Tox" `Quick
      test_gate_surpasses_subthreshold_at_thin_tox;
    Alcotest.test_case "pmos weaker than nmos" `Quick test_pmos_weaker;
    Alcotest.test_case "on-current magnitude" `Quick test_on_current_magnitude;
    Alcotest.test_case "temperature raises subthreshold" `Quick
      test_temperature_raises_subthreshold;
    Alcotest.test_case "Tox scaling rule" `Quick test_scaling_rule;
    Alcotest.test_case "knob range validation" `Quick test_knob_validation;
    Alcotest.test_case "FO4 sanity" `Quick test_fo4_range;
  ]
  @ qcheck
