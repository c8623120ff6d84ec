(* Tests for the extension substrates: variation, annealing, traces,
   drowsy standby. *)

module Units = Nmcache_physics.Units
module Tech = Nmcache_device.Tech
module Variation = Nmcache_device.Variation
module Config = Nmcache_geometry.Config
module Component = Nmcache_geometry.Component
module Cache_model = Nmcache_geometry.Cache_model
module Fitted_cache = Nmcache_fit.Fitted_cache
module Grid = Nmcache_opt.Grid
module Scheme = Nmcache_opt.Scheme
module Anneal = Nmcache_opt.Anneal
module Drowsy = Nmcache_energy.Drowsy
module Trace = Nmcache_cachesim.Trace
module Cache = Nmcache_cachesim.Cache
module Replacement = Nmcache_cachesim.Replacement
module Stats = Nmcache_cachesim.Stats
module Gen = Nmcache_workload.Gen
module Access = Nmcache_workload.Access
module Rng = Nmcache_numerics.Rng

let tech = Tech.bptm65

(* --- variation -------------------------------------------------------- *)

let test_pelgrom_scaling () =
  (* sigma falls as 1/sqrt(area): 4x the width halves the sigma *)
  let tox = Units.angstrom 12.0 in
  let s1 = Variation.sigma_vth tech ~w:(Units.nm 100.0) ~tox in
  let s4 = Variation.sigma_vth tech ~w:(Units.nm 400.0) ~tox in
  Alcotest.(check bool) "1/sqrt(W)" true (Float.abs ((s1 /. s4) -. 2.0) < 1e-9);
  (* minimum-ish device sigma is tens of mV at 65nm *)
  Alcotest.(check bool) "magnitude" true (s1 > 0.01 && s1 < 0.1)

let test_inflation_analytic_vs_mc () =
  let rng = Rng.create ~seed:123L in
  let sigma = 0.03 in
  let analytic =
    Variation.mean_inflation ~sigma ~n_swing:tech.Tech.n_swing ~temp_k:300.0
  in
  let mc =
    Variation.mc_inflation ~rng ~sigma ~n_swing:tech.Tech.n_swing ~temp_k:300.0
      ~samples:400_000
  in
  Alcotest.(check bool) "inflation > 1" true (analytic > 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "MC %.4f ~ analytic %.4f" mc analytic)
    true
    (Float.abs (mc -. analytic) /. analytic < 0.02)

let test_inflation_monotone_in_sigma () =
  let f sigma = Variation.mean_inflation ~sigma ~n_swing:1.35 ~temp_k:300.0 in
  Alcotest.(check bool) "more variation, more inflation" true (f 0.04 > f 0.02);
  Alcotest.(check bool) "zero sigma, no inflation" true (Float.abs (f 0.0 -. 1.0) < 1e-12)

let test_percentile_factor () =
  let p50 = Variation.sigma_percentile_leakage ~sigma:0.03 ~n_swing:1.35 ~temp_k:300.0 ~percentile:50.0 in
  Alcotest.(check bool) "median device is nominal" true (Float.abs (p50 -. 1.0) < 1e-6);
  let p999 = Variation.sigma_percentile_leakage ~sigma:0.03 ~n_swing:1.35 ~temp_k:300.0 ~percentile:99.9 in
  Alcotest.(check bool) "tail device leaks much more" true (p999 > 5.0);
  Alcotest.(check bool) "validation" true
    (try
       ignore (Variation.sigma_percentile_leakage ~sigma:0.03 ~n_swing:1.35 ~temp_k:300.0 ~percentile:0.0);
       false
     with Invalid_argument _ -> true)

let test_gaussian_moments () =
  let rng = Rng.create ~seed:9L in
  let n = 200_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Variation.gaussian rng in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.01);
  Alcotest.(check bool) "var ~ 1" true (Float.abs (var -. 1.0) < 0.02)

(* --- anneal ------------------------------------------------------------ *)

let fitted =
  lazy
    (Fitted_cache.characterize_and_fit
       (Cache_model.make tech (Config.make ~size_bytes:(16 * 1024) ~assoc:4 ~block_bytes:64 ())))

let test_anneal_close_to_exact () =
  let f = Lazy.force fitted in
  let grid = Grid.coarse tech in
  let fast = Scheme.fastest_access_time f ~grid in
  List.iter
    (fun mult ->
      let budget = mult *. fast in
      match Scheme.minimize_leakage f ~grid ~scheme:Scheme.Independent ~delay_budget:budget with
      | None -> Alcotest.fail "Scheme I should be feasible"
      | Some exact ->
        let sa = Anneal.minimize_leakage (Scheme.tables f ~grid) ~delay_budget:budget () in
        Alcotest.(check bool) "SA feasible" true sa.Anneal.feasible;
        Alcotest.(check bool) "SA meets the budget" true
          (sa.Anneal.access_time <= budget *. 1.0000001);
        Alcotest.(check bool)
          (Printf.sprintf "SA within 15%% of the exact optimum (%.4g vs %.4g)"
             sa.Anneal.leak_w exact.Scheme.leak_w)
          true
          (sa.Anneal.leak_w <= exact.Scheme.leak_w *. 1.15);
        (* the search is exact: SA can never beat it (same grid) *)
        Alcotest.(check bool) "SA >= exact" true
          (sa.Anneal.leak_w >= exact.Scheme.leak_w *. 0.999999))
    [ 1.15; 1.35; 1.7 ]

let test_anneal_deterministic () =
  let f = Lazy.force fitted in
  let grid = Grid.coarse tech in
  let budget = 1.3 *. Scheme.fastest_access_time f ~grid in
  let r1 = Anneal.minimize_leakage (Scheme.tables f ~grid) ~delay_budget:budget () in
  let r2 = Anneal.minimize_leakage (Scheme.tables f ~grid) ~delay_budget:budget () in
  Alcotest.(check bool) "same seed, same answer" true (r1.Anneal.leak_w = r2.Anneal.leak_w)

let test_anneal_validation () =
  let f = Lazy.force fitted in
  Alcotest.(check bool) "bad budget" true
    (try
       ignore (Anneal.minimize_leakage (Scheme.tables f ~grid:(Grid.coarse tech)) ~delay_budget:0.0 ());
       false
     with Invalid_argument _ -> true)

(* --- trace -------------------------------------------------------------- *)

let test_trace_record_replay () =
  let g = Gen.cyclic ~name:"c" ~length:8 ~stride:64 () in
  let t =
    Trace.record
      ~next:(fun () ->
        let a = Gen.next g in
        { Trace.addr = a.Access.addr; write = a.Access.write })
      ~n:64
  in
  Alcotest.(check int) "length" 64 (Trace.length t);
  let c1 =
    Cache.create ~size_bytes:1024 ~assoc:2 ~block_bytes:64 ~policy:Replacement.Lru ()
  in
  let c2 =
    Cache.create ~size_bytes:1024 ~assoc:2 ~block_bytes:64 ~policy:Replacement.Lru ()
  in
  Trace.replay t c1;
  Trace.replay t c2;
  Alcotest.(check int) "replay deterministic" (Cache.stats c1).Stats.misses
    (Cache.stats c2).Stats.misses

let test_trace_analyze () =
  let entries =
    Array.init 100 (fun i -> { Trace.addr = i * 8; write = i mod 4 = 0 })
  in
  let s = Trace.analyze (Trace.of_entries entries) in
  Alcotest.(check int) "accesses" 100 s.Trace.accesses;
  Alcotest.(check int) "writes" 25 s.Trace.writes;
  (* 100 words of 8B = 800B = 13 blocks of 64B *)
  Alcotest.(check int) "distinct blocks" 13 s.Trace.distinct_blocks;
  Alcotest.(check bool) "fully sequential" true (s.Trace.sequential_fraction > 0.98)

let test_trace_validation () =
  Alcotest.(check bool) "empty analyze" true
    (try
       ignore (Trace.analyze (Trace.of_entries [||]));
       false
     with Invalid_argument _ -> true)

(* --- drowsy ------------------------------------------------------------- *)

let test_drowsy_bounds () =
  let p = Drowsy.default_policy in
  let e =
    Drowsy.apply p ~array_leak_w:0.1 ~periph_leak_w:0.02 ~access_time:1e-9
      ~awake_fraction:0.1 ~drowsy_hit_rate:0.05
  in
  (* leakage between the all-drowsy floor and nominal *)
  let floor = (0.1 *. p.Drowsy.drowsy_factor) +. 0.02 in
  Alcotest.(check bool) "above floor" true (e.Drowsy.leak_w >= floor -. 1e-15);
  Alcotest.(check bool) "below nominal" true (e.Drowsy.leak_w <= 0.12);
  Alcotest.(check bool) "wake penalty" true (e.Drowsy.access_time > 1e-9);
  Alcotest.(check bool) "saving in (0,1)" true
    (e.Drowsy.leak_saving > 0.0 && e.Drowsy.leak_saving < 1.0)

let test_drowsy_extremes () =
  let p = Drowsy.default_policy in
  let all_awake =
    Drowsy.apply p ~array_leak_w:0.1 ~periph_leak_w:0.0 ~access_time:1e-9
      ~awake_fraction:1.0 ~drowsy_hit_rate:0.0
  in
  Alcotest.(check bool) "all awake = nominal" true
    (Float.abs (all_awake.Drowsy.leak_w -. 0.1) < 1e-15
    && all_awake.Drowsy.access_time = 1e-9);
  let all_drowsy =
    Drowsy.apply p ~array_leak_w:0.1 ~periph_leak_w:0.0 ~access_time:1e-9
      ~awake_fraction:0.0 ~drowsy_hit_rate:1.0
  in
  Alcotest.(check bool) "all drowsy = factor" true
    (Float.abs (all_drowsy.Drowsy.leak_w -. (0.1 *. p.Drowsy.drowsy_factor)) < 1e-15)

let test_drowsy_validation () =
  Alcotest.(check bool) "bad factor" true
    (try
       ignore (Drowsy.make_policy ~drowsy_factor:0.0 ~t_wake:1e-10);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad fraction" true
    (try
       ignore
         (Drowsy.apply Drowsy.default_policy ~array_leak_w:1.0 ~periph_leak_w:0.0
            ~access_time:1e-9 ~awake_fraction:1.5 ~drowsy_hit_rate:0.0);
       false
     with Invalid_argument _ -> true)

let test_drowsy_awake_estimate () =
  let awake, hit =
    Drowsy.simulate_awake_fraction ~window:4000 ~l2_size:(1 lsl 20) ~block:64
      ~accesses_per_window:2000 ~unique_block_fraction:0.35
  in
  Alcotest.(check bool) "fractions in [0,1]" true
    (awake >= 0.0 && awake <= 1.0 && hit >= 0.0 && hit <= 1.0);
  (* a bigger window keeps more lines awake *)
  let awake2, _ =
    Drowsy.simulate_awake_fraction ~window:4000 ~l2_size:(1 lsl 20) ~block:64
      ~accesses_per_window:8000 ~unique_block_fraction:0.35
  in
  Alcotest.(check bool) "more accesses per window, more awake" true (awake2 >= awake)

let suite =
  [
    Alcotest.test_case "pelgrom scaling" `Quick test_pelgrom_scaling;
    Alcotest.test_case "inflation analytic vs MC" `Quick test_inflation_analytic_vs_mc;
    Alcotest.test_case "inflation monotone" `Quick test_inflation_monotone_in_sigma;
    Alcotest.test_case "percentile factors" `Quick test_percentile_factor;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "anneal close to exact Scheme I" `Quick test_anneal_close_to_exact;
    Alcotest.test_case "anneal deterministic" `Quick test_anneal_deterministic;
    Alcotest.test_case "anneal validation" `Quick test_anneal_validation;
    Alcotest.test_case "trace record/replay" `Quick test_trace_record_replay;
    Alcotest.test_case "trace analysis" `Quick test_trace_analyze;
    Alcotest.test_case "trace validation" `Quick test_trace_validation;
    Alcotest.test_case "drowsy bounds" `Quick test_drowsy_bounds;
    Alcotest.test_case "drowsy extremes" `Quick test_drowsy_extremes;
    Alcotest.test_case "drowsy validation" `Quick test_drowsy_validation;
    Alcotest.test_case "drowsy awake estimate" `Quick test_drowsy_awake_estimate;
  ]
