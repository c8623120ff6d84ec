(* Tests for the cache geometry layer: configuration arithmetic,
   organisation search, and the four-component circuit model. *)

module Units = Nmcache_physics.Units
module Tech = Nmcache_device.Tech
module Config = Nmcache_geometry.Config
module Org = Nmcache_geometry.Org
module Component = Nmcache_geometry.Component
module Cache_model = Nmcache_geometry.Cache_model

let tech = Tech.bptm65
let a = Units.angstrom
let kb n = n * 1024
let mb n = n * 1024 * 1024

let cfg16 = Config.make ~size_bytes:(kb 16) ~assoc:4 ~block_bytes:64 ()

(* --- config ---------------------------------------------------------- *)

let test_config_derived () =
  Alcotest.(check int) "sets" 64 (Config.sets cfg16);
  Alcotest.(check int) "index bits" 6 (Config.index_bits cfg16);
  Alcotest.(check int) "offset bits" 6 (Config.offset_bits cfg16);
  Alcotest.(check int) "tag bits" 28 (Config.tag_bits cfg16);
  Alcotest.(check int) "data cells" (8 * kb 16) (Config.data_cells cfg16);
  Alcotest.(check bool) "tag overhead positive" true (Config.tag_cells cfg16 > 0);
  Alcotest.(check int) "total = data + tag" (Config.data_cells cfg16 + Config.tag_cells cfg16)
    (Config.total_cells cfg16)

let test_config_validation () =
  let expect_invalid f =
    Alcotest.(check bool) "rejected" true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid (fun () -> Config.make ~size_bytes:(kb 3) ~assoc:1 ~block_bytes:64 ());
  expect_invalid (fun () -> Config.make ~size_bytes:(kb 16) ~assoc:3 ~block_bytes:64 ());
  expect_invalid (fun () -> Config.make ~size_bytes:(kb 16) ~assoc:4 ~block_bytes:48 ());
  expect_invalid (fun () -> Config.make ~size_bytes:256 ~assoc:8 ~block_bytes:64 ());
  expect_invalid (fun () ->
      Config.make ~output_bits:1024 ~size_bytes:(kb 16) ~assoc:4 ~block_bytes:64 ())

let test_config_describe () =
  Alcotest.(check string) "pp" "16KB/4way/64B" (Config.describe cfg16);
  let big = Config.make ~size_bytes:(mb 2) ~assoc:8 ~block_bytes:64 () in
  Alcotest.(check string) "pp MB" "2MB/8way/64B" (Config.describe big)

let test_power_of_two () =
  Alcotest.(check bool) "64" true (Config.is_power_of_two 64);
  Alcotest.(check bool) "0" false (Config.is_power_of_two 0);
  Alcotest.(check bool) "48" false (Config.is_power_of_two 48)

(* --- org --------------------------------------------------------------- *)

let test_org_candidates_valid () =
  List.iter
    (fun cfg ->
      let cands = Org.candidates cfg in
      Alcotest.(check bool) "non-empty" true (cands <> []);
      List.iter
        (fun org ->
          Alcotest.(check bool) "rows positive" true (Org.rows_sub cfg org >= 1);
          Alcotest.(check bool) "cols positive" true (Org.cols_sub cfg org >= 1.0))
        cands)
    [
      cfg16;
      Config.make ~size_bytes:(kb 4) ~assoc:2 ~block_bytes:32 ();
      Config.make ~size_bytes:(mb 8) ~assoc:8 ~block_bytes:64 ();
    ]

let test_org_grid_covers_subarrays () =
  let org = Org.make ~ndwl:8 ~ndbl:4 in
  let gx, gy = Org.grid org in
  Alcotest.(check int) "grid covers all subarrays" (Org.n_subarrays org) (gx * gy)

let test_org_validation () =
  Alcotest.(check bool) "non power of two" true
    (try
       ignore (Org.make ~ndwl:3 ~ndbl:1);
       false
     with Invalid_argument _ -> true)

(* --- cache model --------------------------------------------------------- *)

let model = Cache_model.make tech cfg16
let ref_knob = Component.knob ~vth:0.3 ~tox:(a 12.0)

let test_components_all_positive () =
  List.iter
    (fun kind ->
      let s = Cache_model.evaluate_component model kind ref_knob in
      Alcotest.(check bool)
        (Component.kind_name kind ^ " delay > 0")
        true (s.Component.delay > 0.0);
      Alcotest.(check bool)
        (Component.kind_name kind ^ " leak > 0")
        true (s.Component.leak_w > 0.0);
      Alcotest.(check bool)
        (Component.kind_name kind ^ " energy > 0")
        true (s.Component.dyn_energy > 0.0);
      Alcotest.(check bool)
        (Component.kind_name kind ^ " area > 0")
        true (s.Component.area > 0.0))
    Component.all_kinds

let test_array_dominates_leakage () =
  let r = Cache_model.evaluate model (Component.uniform ref_knob) in
  let array = List.assoc Component.Array_sense r.Cache_model.components in
  Alcotest.(check bool) "array+sense is the leakiest component" true
    (List.for_all
       (fun (kind, (s : Component.summary)) ->
         kind = Component.Array_sense || s.Component.leak_w <= array.Component.leak_w)
       r.Cache_model.components)

let test_report_is_sum () =
  let r = Cache_model.evaluate model (Component.uniform ref_knob) in
  let sum f = List.fold_left (fun acc (_, s) -> acc +. f s) 0.0 r.Cache_model.components in
  let close msg e g =
    Alcotest.(check bool) msg true (Float.abs (e -. g) <= 1e-12 *. Float.abs e)
  in
  close "access time" (sum (fun s -> s.Component.delay)) r.Cache_model.access_time;
  close "leakage" (sum (fun s -> s.Component.leak_w)) r.Cache_model.leak_w;
  close "dyn energy" (sum (fun s -> s.Component.dyn_energy)) r.Cache_model.dyn_read_energy

let test_bigger_cache_slower_and_leakier () =
  let small = Cache_model.make tech cfg16 in
  let big = Cache_model.make tech (Config.make ~size_bytes:(kb 256) ~assoc:8 ~block_bytes:64 ()) in
  let rs = Cache_model.evaluate small (Component.uniform ref_knob) in
  let rb = Cache_model.evaluate big (Component.uniform ref_knob) in
  Alcotest.(check bool) "bigger is slower" true
    (rb.Cache_model.access_time > rs.Cache_model.access_time);
  Alcotest.(check bool) "bigger leaks more" true (rb.Cache_model.leak_w > rs.Cache_model.leak_w);
  Alcotest.(check bool) "bigger has more area" true (rb.Cache_model.area > rs.Cache_model.area)

let test_access_time_magnitude () =
  let r = Cache_model.evaluate model (Component.uniform ref_knob) in
  Alcotest.(check bool) "16KB access 100..600 ps" true
    (r.Cache_model.access_time > Units.ps 100.0 && r.Cache_model.access_time < Units.ps 600.0)

let test_leakage_magnitude () =
  let leaky =
    Cache_model.evaluate model (Component.uniform (Component.knob ~vth:0.2 ~tox:(a 10.0)))
  in
  let quiet =
    Cache_model.evaluate model (Component.uniform (Component.knob ~vth:0.5 ~tox:(a 14.0)))
  in
  Alcotest.(check bool) "leaky corner 5..200 mW" true
    (leaky.Cache_model.leak_w > Units.mw 5.0 && leaky.Cache_model.leak_w < Units.mw 200.0);
  Alcotest.(check bool) "quiet corner < 5 mW" true (quiet.Cache_model.leak_w < Units.mw 5.0);
  Alcotest.(check bool) "2+ decades of range" true
    (leaky.Cache_model.leak_w /. quiet.Cache_model.leak_w > 20.0)

let test_characterize_shape () =
  let samples =
    Cache_model.characterize model Component.Decoder ~vths:[| 0.2; 0.35; 0.5 |]
      ~toxs:[| a 10.0; a 12.0; a 14.0 |]
  in
  Alcotest.(check int) "3x3 grid" 9 (Array.length samples);
  (* vth-major ordering *)
  let (k0 : Component.knob), _ = samples.(0) in
  let (k1 : Component.knob), _ = samples.(1) in
  Alcotest.(check bool) "vth-major" true
    (k0.Component.vth = k1.Component.vth && k0.Component.tox < k1.Component.tox)

(* --- the evaluator, pinned bit for bit ---------------------------------- *)

(* The five caches test_fit pins its models on, and the quick context's
   L1 and L2. *)
let pin_circuits () =
  let ctx = Core.Context.quick () in
  List.map
    (fun (size_kb, assoc, block_bytes) ->
      Cache_model.make tech (Config.make ~size_bytes:(kb size_kb) ~assoc ~block_bytes ()))
    [ (4, 1, 32); (16, 4, 64); (128, 2, 32); (1024, 8, 64); (8192, 8, 64) ]
  @ [
      Cache_model.make tech (Core.Context.l1_config ctx ());
      Cache_model.make tech (Core.Context.l2_config ctx ());
    ]

(* MD5 of the hex-float delay, leakage, energy and area of every
   component of [pin_circuits] at every point of the default 13 x 9
   grid, through [characterize], [evaluate_component] and [evaluate],
   as the evaluator computed them when every device recomputed its own
   knob factors.  A change that moves one bit of one output fails. *)
let evaluator_known_md5 = "94bc9323a377de10e3f1cc0d64ff2cf3"

let test_evaluator_pinned () =
  let grid = Nmcache_opt.Grid.make tech in
  let buf = Buffer.create (1 lsl 18) in
  let add (s : Component.summary) =
    Buffer.add_string buf
      (Printf.sprintf "%h %h %h %h\n" s.Component.delay s.Component.leak_w
         s.Component.dyn_energy s.Component.area)
  in
  List.iter
    (fun circuit ->
      List.iter
        (fun kind ->
          Array.iter
            (fun (k, s) ->
              add s;
              add (Cache_model.evaluate_component circuit kind k))
            (Cache_model.characterize circuit kind ~vths:grid.Nmcache_opt.Grid.vths
               ~toxs:grid.Nmcache_opt.Grid.toxs))
        Component.all_kinds;
      Array.iter
        (fun k ->
          List.iter (fun (_, s) -> add s)
            (Cache_model.evaluate circuit (Component.uniform k)).Cache_model.components)
        (Nmcache_opt.Grid.knobs grid))
    (pin_circuits ());
  Alcotest.(check string) "evaluator outputs" evaluator_known_md5
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* An out-of-range knob is refused with the technology's own message,
   for every component. *)
let test_evaluator_refuses_out_of_range () =
  List.iter
    (fun (k, message) ->
      List.iter
        (fun kind ->
          Alcotest.check_raises (Component.kind_name kind) (Invalid_argument message) (fun () ->
              ignore (Cache_model.evaluate_component model kind k)))
        Component.all_kinds)
    [
      ( Component.knob ~vth:0.1 ~tox:(a 12.0),
        "Tech.check_knobs: Vth 0.100 V outside [0.200, 0.500]" );
      ( Component.knob ~vth:0.3 ~tox:(a 15.0),
        "Tech.check_knobs: Tox 15.00 A outside [10.00, 14.00]" );
    ]

(* Minor words of one warm [evaluate_component] call on the 16 KB L1
   at the reference knob, per kind.  Each call builds one device state
   and no device recomputes a knob factor: 169 / 438 / 169 / 314 words
   (505 / 1,012 / 352 / 964 when every device built its own).  What is
   left is mostly floats boxed across module boundaries: each device
   quantity is a call into Leakage or Drive. *)
let evaluator_words kind =
  let k = Cache_model.reference model in
  ignore (Cache_model.evaluate_component model kind k);
  let n = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Cache_model.evaluate_component model kind k))
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let test_evaluator_allocation () =
  List.iter
    (fun (kind, bound) ->
      let words = evaluator_words kind in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words <= %.0f" (Component.kind_name kind) words bound)
        true (words <= bound))
    [
      (Component.Array_sense, 185.0);
      (Component.Decoder, 480.0);
      (Component.Addr_drivers, 185.0);
      (Component.Data_drivers, 345.0);
    ]

let knob_arb = Generators.interior_knob_arb

(* Leakage is only *nearly* monotone in the knobs: past Vth ~0.42 with
   thick Tox, subthreshold current is already negligible and the paper's
   Tox->L->W sizing rule grows gate area faster than tunnelling shrinks,
   so even the array component's leakage can ripple up by ~0.3%.  The
   full-cache totals additionally ripple where discrete structures
   (repeater counts, buffer-chain stage counts) change size.  Delay is
   strictly monotone for the array and gets a small tolerance for the
   totals. *)
let prop_model_monotone =
  QCheck.Test.make ~count:60 ~name:"cache leakage dec / delay inc in knobs" knob_arb
    (fun (vth, tox_a) ->
      let k1 = Component.knob ~vth ~tox:(a tox_a) in
      let k2 = Component.knob ~vth:(vth +. 0.02) ~tox:(a (tox_a +. 0.2)) in
      let a1 = Cache_model.evaluate_component model Component.Array_sense k1 in
      let a2 = Cache_model.evaluate_component model Component.Array_sense k2 in
      let r1 = Cache_model.evaluate model (Component.uniform k1) in
      let r2 = Cache_model.evaluate model (Component.uniform k2) in
      a2.Component.leak_w < a1.Component.leak_w *. 1.01
      && a2.Component.delay > a1.Component.delay
      && r2.Cache_model.leak_w < r1.Cache_model.leak_w *. 1.02
      && r2.Cache_model.access_time > r1.Cache_model.access_time *. 0.98)

let test_assignment_accessors () =
  let ka = Component.knob ~vth:0.4 ~tox:(a 14.0) in
  let kp = Component.knob ~vth:0.2 ~tox:(a 10.0) in
  let s = Component.split ~cell:ka ~periphery:kp in
  Alcotest.(check bool) "array gets cell" true (Component.get s Component.Array_sense == ka);
  Alcotest.(check bool) "decoder gets periph" true (Component.get s Component.Decoder == kp);
  let s' = Component.set s Component.Data_drivers ka in
  Alcotest.(check bool) "set overrides" true
    (Component.get s' Component.Data_drivers == ka)

let test_kind_roundtrip () =
  List.iter
    (fun kind ->
      Alcotest.(check bool) "name roundtrip" true
        (Component.kind_of_name (Component.kind_name kind) = Some kind))
    Component.all_kinds

let suite =
  [
    Alcotest.test_case "config derived quantities" `Quick test_config_derived;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "config describe" `Quick test_config_describe;
    Alcotest.test_case "power of two" `Quick test_power_of_two;
    Alcotest.test_case "org candidates valid" `Quick test_org_candidates_valid;
    Alcotest.test_case "org grid covers subarrays" `Quick test_org_grid_covers_subarrays;
    Alcotest.test_case "org validation" `Quick test_org_validation;
    Alcotest.test_case "components positive" `Quick test_components_all_positive;
    Alcotest.test_case "array dominates leakage" `Quick test_array_dominates_leakage;
    Alcotest.test_case "report is component sum" `Quick test_report_is_sum;
    Alcotest.test_case "bigger cache slower/leakier" `Quick
      test_bigger_cache_slower_and_leakier;
    Alcotest.test_case "access time magnitude" `Quick test_access_time_magnitude;
    Alcotest.test_case "leakage magnitude" `Quick test_leakage_magnitude;
    Alcotest.test_case "characterize grid shape" `Quick test_characterize_shape;
    Alcotest.test_case "assignment accessors" `Quick test_assignment_accessors;
    Alcotest.test_case "kind name roundtrip" `Quick test_kind_roundtrip;
    Alcotest.test_case "evaluator pinned bit for bit" `Quick test_evaluator_pinned;
    Alcotest.test_case "evaluator refuses out-of-range knobs" `Quick
      test_evaluator_refuses_out_of_range;
    Alcotest.test_case "alloc gate: evaluate_component words per kind" `Quick
      test_evaluator_allocation;
  ]
  @ List.map Generators.to_alcotest [ prop_model_monotone ]
