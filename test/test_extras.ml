(* Tests for the second-wave substrates: detailed netlists, prefetching,
   phased workloads. *)

module Units = Nmcache_physics.Units
module Tech = Nmcache_device.Tech
module Netlist = Nmcache_circuit.Netlist
module Sram_cell = Nmcache_circuit.Sram_cell
module Gate = Nmcache_circuit.Gate
module Prefetch = Nmcache_cachesim.Prefetch
module Cache = Nmcache_cachesim.Cache
module Hierarchy = Nmcache_cachesim.Hierarchy
module Replacement = Nmcache_cachesim.Replacement
module Stats = Nmcache_cachesim.Stats
module Gen = Nmcache_workload.Gen
module Phased = Nmcache_workload.Phased
module Registry = Nmcache_workload.Registry
module Rng = Nmcache_numerics.Rng

let tech = Tech.bptm65
let a = Units.angstrom
let kb n = n * 1024

(* --- netlist ------------------------------------------------------------ *)

let cell = Sram_cell.make tech ~vth:0.3 ~tox:(a 12.0)

let test_wordline_tree_capacitance () =
  (* the tree must carry exactly the wire + gate load of all columns *)
  let cols = 128 in
  let tree = Netlist.wordline_tree tech ~cell ~cols ~segment_cells:16 in
  let expected =
    (tech.Tech.wire_c_per_m *. (float_of_int cols *. cell.Sram_cell.width))
    +. (float_of_int cols *. Sram_cell.gate_load tech cell)
  in
  let got = Nmcache_circuit.Rc.total_capacitance tree in
  Alcotest.(check bool)
    (Printf.sprintf "cap %.3g vs %.3g" got expected)
    true
    (Float.abs (got -. expected) /. expected < 1e-9)

let test_wordline_detailed_vs_lumped () =
  (* detailed Elmore of the segmented line vs the 0.38 R C lump: same
     order, detailed >= half and <= 3x the lump across sizes *)
  let inv = Gate.inverter tech ~vth:0.3 ~tox:(a 12.0) ~size:16.0 in
  List.iter
    (fun cols ->
      let detailed =
        Netlist.wordline_delay tech ~cell ~cols ~r_driver:inv.Gate.r_drive
          ~t_rise_in:20e-12
      in
      let len = float_of_int cols *. cell.Sram_cell.width in
      let r_w = tech.Tech.wire_r_per_m *. len in
      let c_w =
        (tech.Tech.wire_c_per_m *. len)
        +. (float_of_int cols *. Sram_cell.gate_load tech cell)
      in
      let lumped = (0.38 *. r_w *. c_w) +. (inv.Gate.r_drive *. c_w) in
      Alcotest.(check bool)
        (Printf.sprintf "cols=%d detailed %.3g vs lumped %.3g" cols detailed lumped)
        true
        (detailed > 0.5 *. lumped && detailed < 3.0 *. lumped))
    [ 32; 128; 512 ]

let test_wordline_monotone_in_cols () =
  let inv = Gate.inverter tech ~vth:0.3 ~tox:(a 12.0) ~size:16.0 in
  let d cols =
    Netlist.wordline_delay tech ~cell ~cols ~r_driver:inv.Gate.r_drive ~t_rise_in:0.0
  in
  Alcotest.(check bool) "monotone" true (d 64 < d 128 && d 128 < d 256)

let test_bitline_discharge () =
  let t = Netlist.bitline_discharge tech ~cell ~rows:128 ~sense_swing:0.1 in
  Alcotest.(check bool) "positive, sub-ns" true (t > 0.0 && t < 1e-9);
  let t2 = Netlist.bitline_discharge tech ~cell ~rows:256 ~sense_swing:0.1 in
  Alcotest.(check bool) "more rows, slower" true (t2 > t);
  let t3 = Netlist.bitline_discharge tech ~cell ~rows:128 ~sense_swing:0.2 in
  Alcotest.(check bool) "bigger swing, slower" true (t3 > t)

let test_netlist_validation () =
  Alcotest.(check bool) "cols < 1" true
    (try
       ignore (Netlist.wordline_tree tech ~cell ~cols:0 ~segment_cells:8);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad swing" true
    (try
       ignore (Netlist.bitline_discharge tech ~cell ~rows:8 ~sense_swing:1.5);
       false
     with Invalid_argument _ -> true)

(* --- prefetch -------------------------------------------------------------- *)

let fresh_pair () =
  ( Cache.create ~size_bytes:(kb 1) ~assoc:2 ~block_bytes:64 ~policy:Replacement.Lru (),
    Cache.create ~size_bytes:(kb 16) ~assoc:4 ~block_bytes:64 ~policy:Replacement.Lru () )

let test_prefetch_streams_into_l2 () =
  let l1, l2 = fresh_pair () in
  let p = Prefetch.create ~degree:2 ~l1 ~l2 () in
  let o = Prefetch.access p 0 ~write:false in
  Alcotest.(check int) "two prefetches on the miss" 2 (Prefetch.prefetches_issued o);
  Alcotest.(check bool) "next lines resident in L2" true
    (Cache.contains l2 64 && Cache.contains l2 128);
  Alcotest.(check bool) "but not in L1" false (Cache.contains l1 64)

let test_prefetch_improves_sequential_l2_hits () =
  let run degree =
    let l1, l2 = fresh_pair () in
    let p = Prefetch.create ~degree ~l1 ~l2 () in
    let g = Gen.sequential ~stride:64 ~name:"s" () in
    let l2_hits = ref 0 and l1_misses = ref 0 in
    Gen.iter ~stage:"test" g 2000 (fun addr _ ->
        let o = Prefetch.access p addr ~write:false in
        if not (Prefetch.l1_hit o) then begin
          incr l1_misses;
          if Prefetch.l2_hit o then incr l2_hits
        end);
    float_of_int !l2_hits /. float_of_int (max 1 !l1_misses)
  in
  let without = run 0 and with_pf = run 2 in
  Alcotest.(check bool)
    (Printf.sprintf "L2 hit ratio %.2f -> %.2f" without with_pf)
    true
    (with_pf > without +. 0.5)

let test_prefetch_accuracy_on_stream () =
  let l1, l2 = fresh_pair () in
  let p = Prefetch.create ~degree:1 ~l1 ~l2 () in
  let g = Gen.sequential ~stride:64 ~name:"s" () in
  Gen.iter ~stage:"test" g 2000 (fun addr _ -> ignore (Prefetch.access p addr ~write:false));
  Alcotest.(check bool)
    (Printf.sprintf "accuracy %.2f high on a pure stream" (Prefetch.accuracy p))
    true
    (Prefetch.accuracy p > 0.9)

let test_prefetch_zero_degree_is_plain () =
  let l1, l2 = fresh_pair () in
  let p = Prefetch.create ~degree:0 ~l1 ~l2 () in
  ignore (Prefetch.access p 0 ~write:false);
  Alcotest.(check int) "no prefetches" 0 (Prefetch.prefetches p)

let prop_prefetch_degree0_equals_hierarchy =
  QCheck.Test.make ~count:20 ~name:"degree-0 prefetcher behaves as the plain hierarchy"
    Generators.trace_seed_arb
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let trace = Array.init 3_000 (fun _ -> 64 * Rng.int rng ~bound:1024) in
      let l1a, l2a = fresh_pair () in
      let p = Prefetch.create ~degree:0 ~l1:l1a ~l2:l2a () in
      Array.iter (fun a -> ignore (Prefetch.access p a ~write:false)) trace;
      let l1b, l2b = fresh_pair () in
      let h = Hierarchy.create ~l1:l1b ~l2:l2b in
      Array.iter (fun a -> ignore (Hierarchy.access h a ~write:false)) trace;
      (Cache.stats l1a).Stats.misses = (Cache.stats l1b).Stats.misses
      && (Cache.stats l2a).Stats.misses = (Cache.stats l2b).Stats.misses)

(* --- phased ----------------------------------------------------------------- *)

let test_phased_cycles () =
  let rng = Rng.create ~seed:3L in
  let p1 = Gen.sequential ~start:0 ~name:"a" () in
  let p2 = Gen.sequential ~start:(1 lsl 40) ~name:"b" () in
  let g = Phased.cycle ~name:"p" ~rng ~dwell:50 [ p1; p2 ] in
  let in_b = ref 0 in
  let n = 20_000 in
  Gen.iter ~stage:"test" g n (fun addr _ -> if addr >= 1 lsl 40 then incr in_b);
  let frac = float_of_int !in_b /. float_of_int n in
  (* two equal phases: roughly half the time in each *)
  Alcotest.(check bool) (Printf.sprintf "phase balance %.2f" frac) true
    (frac > 0.35 && frac < 0.65)

let test_phased_deterministic () =
  let g1 = Registry.build ~seed:9L "spec2000-phased" in
  let g2 = Registry.build ~seed:9L "spec2000-phased" in
  Alcotest.(check bool) "reproducible" true (Gen.take g1 2000 = Gen.take g2 2000)

let test_phased_validation () =
  let rng = Rng.create ~seed:1L in
  Alcotest.(check bool) "empty phases" true
    (try
       ignore (Phased.cycle ~name:"x" ~rng ~dwell:10 []);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "wordline tree capacitance" `Quick test_wordline_tree_capacitance;
    Alcotest.test_case "wordline detailed vs lumped" `Quick test_wordline_detailed_vs_lumped;
    Alcotest.test_case "wordline monotone" `Quick test_wordline_monotone_in_cols;
    Alcotest.test_case "bitline discharge" `Quick test_bitline_discharge;
    Alcotest.test_case "netlist validation" `Quick test_netlist_validation;
    Alcotest.test_case "prefetch streams into L2" `Quick test_prefetch_streams_into_l2;
    Alcotest.test_case "prefetch improves stream hits" `Quick
      test_prefetch_improves_sequential_l2_hits;
    Alcotest.test_case "prefetch accuracy" `Quick test_prefetch_accuracy_on_stream;
    Alcotest.test_case "zero-degree prefetcher" `Quick test_prefetch_zero_degree_is_plain;
    Alcotest.test_case "phased cycles" `Quick test_phased_cycles;
    Alcotest.test_case "phased deterministic" `Quick test_phased_deterministic;
    Alcotest.test_case "phased validation" `Quick test_phased_validation;
  ]
  @ List.map Generators.to_alcotest [ prop_prefetch_degree0_equals_hierarchy ]
