(* Tests for the transient nodal simulator, and checks of the array's
   wordline and bitline closed forms (the ones the Array_sense delay is
   built from) against simulated distributed RC lines. *)

module Units = Nmcache_physics.Units
module Tech = Nmcache_device.Tech
module Knob_state = Nmcache_device.Knob_state
module Transient = Nmcache_circuit.Transient
module Sram_cell = Nmcache_circuit.Sram_cell
module Config = Nmcache_geometry.Config
module Org = Nmcache_geometry.Org
module Component = Nmcache_geometry.Component
module Cache_model = Nmcache_geometry.Cache_model

let tech = Tech.bptm65

let test_rc_step_response () =
  (* one node: R from a 1V step source, C to ground.  v(t) = 1 - e^{-t/RC} *)
  let r = 1e3 and c = 1e-12 in
  let ckt = Transient.create ~nodes:1 in
  Transient.add_capacitor ckt ~a:0 ~farads:c;
  Transient.add_voltage_drive ckt ~a:0 ~volts:(fun _ -> 1.0) ~r_source:r;
  let tau = r *. c in
  let w = Transient.simulate ckt ~v0:[| 0.0 |] ~dt:(tau /. 200.0) ~steps:2000 in
  (* sample at t = tau: expect 1 - 1/e *)
  let v_tau = Transient.node_voltage w ~node:0 ~step:200 in
  Alcotest.(check bool)
    (Printf.sprintf "v(tau) = %.4f ~ 0.632" v_tau)
    true
    (Float.abs (v_tau -. (1.0 -. Float.exp (-1.0))) < 0.01);
  (* 50% crossing at t = RC ln 2 *)
  match Transient.crossing_time w ~node:0 ~threshold:0.5 ~rising:true with
  | None -> Alcotest.fail "never crossed"
  | Some t ->
    Alcotest.(check bool)
      (Printf.sprintf "t50 = %.3g ~ %.3g" t (tau *. Float.log 2.0))
      true
      (Float.abs (t -. (tau *. Float.log 2.0)) /. (tau *. Float.log 2.0) < 0.02)

let test_constant_current_discharge () =
  (* capacitor discharged by a constant current: linear ramp *)
  let c = 10e-15 and i = 50e-6 in
  let ckt = Transient.create ~nodes:1 in
  Transient.add_capacitor ckt ~a:0 ~farads:c;
  Transient.add_current_source ckt ~a:0 ~amps:(fun _ -> -.i);
  (* tiny leak to ground keeps the G matrix non-singular *)
  Transient.add_resistor ckt ~a:0 ~b:None ~ohms:1e12;
  let w = Transient.simulate ckt ~v0:[| 1.0 |] ~dt:1e-13 ~steps:2000 in
  (* dV/dt = -I/C: the 0.9V crossing is at t = 0.1 C / I *)
  (match Transient.crossing_time w ~node:0 ~threshold:0.9 ~rising:false with
  | None -> Alcotest.fail "no discharge"
  | Some t ->
    let expected = 0.1 *. c /. i in
    Alcotest.(check bool)
      (Printf.sprintf "t = %.3g ~ %.3g" t expected)
      true
      (Float.abs (t -. expected) /. expected < 0.02))

let test_two_stage_ladder_vs_elmore () =
  (* R1-C1-R2-C2 ladder step response: the 50% crossing at the far node
     should sit within ~30% of ln2 x Elmore delay *)
  let r1 = 2e3 and c1 = 2e-15 and r2 = 3e3 and c2 = 4e-15 in
  let ckt = Transient.create ~nodes:2 in
  Transient.add_capacitor ckt ~a:0 ~farads:c1;
  Transient.add_capacitor ckt ~a:1 ~farads:c2;
  Transient.add_voltage_drive ckt ~a:0 ~volts:(fun _ -> 1.0) ~r_source:r1;
  Transient.add_resistor ckt ~a:0 ~b:(Some 1) ~ohms:r2;
  let elmore = (r1 *. (c1 +. c2)) +. (r2 *. c2) in
  let w = Transient.simulate ckt ~v0:[| 0.0; 0.0 |] ~dt:(elmore /. 500.0) ~steps:5000 in
  match Transient.crossing_time w ~node:1 ~threshold:0.5 ~rising:true with
  | None -> Alcotest.fail "no rise"
  | Some t ->
    let expected = Float.log 2.0 *. elmore in
    Alcotest.(check bool)
      (Printf.sprintf "t50 %.3g vs ln2*Elmore %.3g" t expected)
      true
      (t > 0.6 *. expected && t < 1.4 *. expected)

(* --- the array's closed forms against detailed circuits ---------------
   [Cache_model.array_timing] returns the wordline and bitline quantities
   [evaluate_component] combines into the Array_sense delay, so these
   checks exercise the closed forms every array fit is sampled from.
   They run for the 16 KB L1 and the 1 MB L2 at the four corners of the
   knob range and at the reference knob.  The transient time step is a
   fixed fraction of the closed-form delay; the ratios agree to 5 digits
   at 100 to 1000 steps per closed-form delay. *)

let array_cases =
  lazy
    (let corners =
       List.concat_map
         (fun vth ->
           List.map
             (fun tox -> Component.knob ~vth ~tox)
             [ tech.Tech.tox_min; tech.Tech.tox_max ])
         [ tech.Tech.vth_min; tech.Tech.vth_max ]
     in
     List.concat_map
       (fun (name, size_bytes, assoc) ->
         let m =
           Cache_model.make tech (Config.make ~size_bytes ~assoc ~block_bytes:64 ())
         in
         List.map
           (fun (k : Component.knob) ->
             let label =
               Printf.sprintf "%s at (%.3f V, %.1f A)" name k.vth (Units.to_angstrom k.tox)
             in
             (label, m, k))
           (corners @ [ Cache_model.reference m ]))
       [ ("16KB L1", 16 * 1024, 4); ("1MB L2", 1024 * 1024, 8) ])

let steps_per_delay = 200.0

let check_ratio label ~lo ~hi ratio =
  Alcotest.(check bool)
    (Printf.sprintf "%s: transient / closed form = %.5f in [%.3f, %.3f]" label ratio lo
       hi)
    true
    (ratio >= lo && ratio <= hi)

let test_array_delay_identity () =
  List.iter
    (fun (label, m, k) ->
      let at = Cache_model.array_timing m k in
      let s = Cache_model.evaluate_component m Component.Array_sense k in
      Alcotest.(check int64)
        (label ^ ": wordline + bitline + sense = Array_sense delay")
        (Int64.bits_of_float s.Component.delay)
        (Int64.bits_of_float
           (at.Cache_model.wordline_delay +. at.Cache_model.bitline_delay
          +. at.Cache_model.sense_delay)))
    (Lazy.force array_cases)

(* 64 uniform segments carrying the model's wordline R and C, driven by
   a Vdd step through one segment's resistance; the far end's 50 %
   crossing against 0.38 R C.  Measured 1.01226 at every point (the
   ratio depends only on the segment count: 1.0278 at 32 segments,
   1.0045 at 128). *)
let wordline_ratio (at : Cache_model.array_timing) =
  let n = 64 in
  let r = at.wordline_r /. float_of_int n and c = at.wordline_c /. float_of_int n in
  let ckt = Transient.create ~nodes:n in
  for i = 0 to n - 1 do
    Transient.add_capacitor ckt ~a:i ~farads:c;
    if i > 0 then Transient.add_resistor ckt ~a:(i - 1) ~b:(Some i) ~ohms:r
  done;
  let vdd = tech.Tech.vdd in
  Transient.add_voltage_drive ckt ~a:0 ~volts:(fun _ -> vdd) ~r_source:r;
  let closed = at.wordline_delay in
  let w =
    Transient.simulate ckt ~v0:(Array.make n 0.0) ~dt:(closed /. steps_per_delay)
      ~steps:(3 * int_of_float steps_per_delay)
  in
  match Transient.crossing_time w ~node:(n - 1) ~threshold:(0.5 *. vdd) ~rising:true with
  | None -> Alcotest.fail "wordline far end never reached half rail"
  | Some t -> t /. closed

let test_wordline_closed_form_vs_transient () =
  List.iter
    (fun (label, m, k) ->
      check_ratio label ~lo:1.005 ~hi:1.020 (wordline_ratio (Cache_model.array_timing m k)))
    (Lazy.force array_cases)

(* 32 segments carrying the model's bitline C behind the sense amp's
   input C at the near end, the cell read current drawn at the far end.
   The closed form leaves out the bitline wire resistance; the circuit
   adds it (rows x cell height of wire), so the near end lags the
   line's mean voltage by about R C / 6 and the ratio is above 1 by
   about R C / (6 x the closed form).  Measured 1.00415 (L1, slow
   corner) to 1.04383 (L2, fast corner). *)
let bitline_ratio m (k : Component.knob) (at : Cache_model.array_timing) =
  let n = 32 in
  let cell = Sram_cell.make (Knob_state.make tech ~vth:k.vth ~tox:k.tox) in
  let rows = Org.rows_sub (Cache_model.config m) (Cache_model.org m) in
  let r_wire = float_of_int rows *. tech.Tech.wire_r_per_m *. cell.Sram_cell.height in
  let r = r_wire /. float_of_int n and c = at.bitline_c /. float_of_int n in
  let ckt = Transient.create ~nodes:(n + 1) in
  Transient.add_capacitor ckt ~a:0 ~farads:at.sense_c_in;
  for i = 1 to n do
    Transient.add_capacitor ckt ~a:i ~farads:c;
    Transient.add_resistor ckt ~a:(i - 1) ~b:(Some i) ~ohms:r
  done;
  Transient.add_current_source ckt ~a:n ~amps:(fun _ -> -.at.read_current);
  let vdd = tech.Tech.vdd in
  let closed = at.bitline_delay in
  let w =
    Transient.simulate ckt ~v0:(Array.make (n + 1) vdd) ~dt:(closed /. steps_per_delay)
      ~steps:(2 * int_of_float steps_per_delay)
  in
  match
    Transient.crossing_time w ~node:0 ~threshold:(vdd -. at.sense_swing) ~rising:false
  with
  | None -> Alcotest.fail "bitline never developed the sense swing"
  | Some t -> t /. closed

let test_bitline_closed_form_vs_transient () =
  List.iter
    (fun (label, m, k) ->
      check_ratio label ~lo:1.000 ~hi:1.055
        (bitline_ratio m k (Cache_model.array_timing m k)))
    (Lazy.force array_cases)

let test_validation () =
  let ckt = Transient.create ~nodes:1 in
  Alcotest.(check bool) "bad resistor" true
    (try
       Transient.add_resistor ckt ~a:0 ~b:None ~ohms:0.0;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad node" true
    (try
       Transient.add_capacitor ckt ~a:3 ~farads:1e-15;
       false
     with Invalid_argument _ -> true);
  Transient.add_capacitor ckt ~a:0 ~farads:1e-15;
  Alcotest.(check bool) "bad dt" true
    (try
       ignore (Transient.simulate ckt ~v0:[| 0.0 |] ~dt:0.0 ~steps:10);
       false
     with Invalid_argument _ -> true)

let test_energy_conservation_flavour () =
  (* a floating RC with no sources must decay monotonically to zero *)
  let ckt = Transient.create ~nodes:1 in
  Transient.add_capacitor ckt ~a:0 ~farads:1e-12;
  Transient.add_resistor ckt ~a:0 ~b:None ~ohms:1e3;
  let w = Transient.simulate ckt ~v0:[| 1.0 |] ~dt:1e-11 ~steps:1000 in
  let last = Transient.node_voltage w ~node:0 ~step:1000 in
  Alcotest.(check bool) "decays" true (last < 0.01 && last >= -0.01);
  for s = 1 to 1000 do
    Alcotest.(check bool) "monotone decay" true
      (Transient.node_voltage w ~node:0 ~step:s
      <= Transient.node_voltage w ~node:0 ~step:(s - 1) +. 1e-12)
  done

let suite =
  [
    Alcotest.test_case "RC step response" `Quick test_rc_step_response;
    Alcotest.test_case "constant-current discharge" `Quick test_constant_current_discharge;
    Alcotest.test_case "ladder vs Elmore" `Quick test_two_stage_ladder_vs_elmore;
    Alcotest.test_case "array delay = closed-form parts" `Quick test_array_delay_identity;
    Alcotest.test_case "wordline closed form vs transient" `Quick
      test_wordline_closed_form_vs_transient;
    Alcotest.test_case "bitline closed form vs transient" `Quick
      test_bitline_closed_form_vs_transient;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "source-free decay" `Quick test_energy_conservation_flavour;
  ]
