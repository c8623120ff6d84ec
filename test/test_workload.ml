(* Tests for the synthetic workload generators and miss-rate tables. *)

module Gen = Nmcache_workload.Gen
module Access = Nmcache_workload.Access
module Regions = Nmcache_workload.Regions
module Suites = Nmcache_workload.Suites
module Registry = Nmcache_workload.Registry
module Missrate = Nmcache_workload.Missrate
module Rng = Nmcache_numerics.Rng
module Stream_trace = Nmcache_cachesim.Stream_trace
module Store = Nmcache_engine.Store
module Sweep = Nmcache_engine.Sweep

let kb n = n * 1024
let mb n = n * 1024 * 1024

(* --- micro generators --------------------------------------------------- *)

let test_sequential () =
  let g = Gen.sequential ~start:100 ~stride:8 ~name:"seq" () in
  let xs = Gen.take g 4 in
  Alcotest.(check (list int)) "addresses" [ 100; 108; 116; 124 ]
    (Array.to_list (Array.map (fun (a : Access.t) -> a.Access.addr) xs))

let test_cyclic () =
  let g = Gen.cyclic ~start:0 ~stride:64 ~name:"cyc" ~length:3 () in
  let xs = Array.map (fun (a : Access.t) -> a.Access.addr) (Gen.take g 7) in
  Alcotest.(check (list int)) "wraps" [ 0; 64; 128; 0; 64; 128; 0 ] (Array.to_list xs)

let test_uniform_random_in_range () =
  let rng = Rng.create ~seed:20L in
  let g = Gen.uniform_random ~base:1000 ~name:"u" ~rng ~footprint:(kb 64) () in
  Gen.iter ~stage:"test" g 10_000 (fun addr _ ->
      Alcotest.(check bool) "in region" true (addr >= 1000 && addr < 1000 + kb 64))

let test_mix_weights () =
  let rng = Rng.create ~seed:21L in
  let left = Gen.sequential ~start:0 ~name:"left" () in
  let right = Gen.sequential ~start:(mb 512) ~name:"right" () in
  let g = Gen.mix ~name:"m" ~rng [ (0.8, left); (0.2, right) ] in
  let n = 50_000 in
  let left_count = ref 0 in
  Gen.iter ~stage:"test" g n (fun addr _ -> if addr < mb 512 then incr left_count);
  let frac = float_of_int !left_count /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "left fraction %.3f" frac) true
    (Float.abs (frac -. 0.8) < 0.02)

let test_write_fraction () =
  let rng = Rng.create ~seed:22L in
  let g = Gen.with_write_fraction ~rng ~p:0.3 (Gen.sequential ~name:"s" ()) in
  let writes = ref 0 in
  let n = 50_000 in
  Gen.iter ~stage:"test" g n (fun _ write -> if write then incr writes);
  let frac = float_of_int !writes /. float_of_int n in
  Alcotest.(check bool) "30% writes" true (Float.abs (frac -. 0.3) < 0.02)

(* --- regions ------------------------------------------------------------- *)

let test_locality_walker_region () =
  let rng = Rng.create ~seed:23L in
  let next = Regions.locality_walker ~rng ~base:(kb 4) ~bytes:(kb 8) ~p_continue:0.7 () in
  for _ = 1 to 5_000 do
    let addr = Stream_trace.addr (next ()) in
    Alcotest.(check bool) "stays in region" true (addr >= kb 4 && addr < kb 12)
  done

let test_zipf_blocks_region_and_runs () =
  let rng = Rng.create ~seed:24L in
  let next = Regions.zipf_blocks ~rng ~base:0 ~bytes:(kb 64) ~block:64 ~s:0.8 ~run:4 () in
  let prev = ref (-1) in
  let sequential_steps = ref 0 in
  let total = 10_000 in
  for _ = 1 to total do
    let addr = Stream_trace.addr (next ()) in
    Alcotest.(check bool) "in region" true (addr >= 0 && addr < kb 64);
    if !prev >= 0 && addr = !prev + 8 then incr sequential_steps;
    prev := addr
  done;
  (* runs of 4 mean ~3/4 of steps are sequential *)
  let frac = float_of_int !sequential_steps /. float_of_int total in
  Alcotest.(check bool) (Printf.sprintf "run locality %.2f" frac) true (frac > 0.5)

let test_stream_wraps () =
  let next = Regions.stream ~base:0 ~bytes:256 ~stride:64 () in
  let xs = List.init 5 (fun _ -> Stream_trace.addr (next ())) in
  Alcotest.(check (list int)) "wraps" [ 0; 64; 128; 192; 0 ] xs

(* --- suites ---------------------------------------------------------------- *)

let test_generators_deterministic () =
  List.iter
    (fun name ->
      let g1 = Registry.build ~seed:5L name in
      let g2 = Registry.build ~seed:5L name in
      let t1 = Gen.take g1 1000 and t2 = Gen.take g2 1000 in
      Alcotest.(check bool) (name ^ " deterministic") true (t1 = t2))
    Registry.names

(* Digests of the first 100 000 accesses of every registry workload at
   seed 42, pinned when Zipf popularity moved to rejection-inversion
   sampling (generation [ri1]); the goldens exercise only the headline
   three. *)
let known_digests =
  [
    ("spec2000-mix", "fdd30cfd9656f5f756227b8ad20b45fd");
    ("spec2000-gcc", "b5f884cabbd70232e9ac994249926485");
    ("spec2000-mcf", "d0d3ecfdf3c6cdeed575a00ca42793ee");
    ("spec2000-art", "ea077b4de54dec6e68eea7d8f40bde7f");
    ("specweb", "4187dc49cd511320c91d4209421e3805");
    ("tpcc", "341d91184e68a7a1f97e0de683f436ab");
    ("spec2000-phased", "7ee0774bee0ee4eae6f7f046833b11ae");
  ]

let test_generators_known_answers () =
  Alcotest.(check (list string)) "every workload pinned" Registry.names
    (List.map fst known_digests);
  List.iter
    (fun (name, want) ->
      let buf = Buffer.create (8 * 100_000) in
      Gen.iter ~stage:"test" (Registry.build ~seed:42L name) 100_000 (fun addr write ->
          Buffer.add_int64_le buf (Int64.of_int (Stream_trace.pack addr write)));
      Alcotest.(check string) (name ^ " digest") want
        (Digest.to_hex (Digest.string (Buffer.contents buf)));
      (* the boxing adapter reads the same stream *)
      let packed = Registry.build ~seed:42L name and boxed = Registry.build ~seed:42L name in
      for _ = 1 to 1000 do
        let e = Gen.next_packed packed and a = Gen.next boxed in
        if Stream_trace.addr e <> a.Access.addr || Stream_trace.is_write e <> a.Access.write
        then Alcotest.failf "%s: Gen.next disagrees with Gen.next_packed" name
      done)
    known_digests

(* A chunk draw is the per-access draw: [Gen.fill] over pieces of any
   length, at any offset, writes what [Gen.next_packed] returns. *)
let test_fill_equals_next_packed () =
  let rng = Rng.create ~seed:11L in
  List.iter
    (fun name ->
      let by_fill = Registry.build ~seed:42L name and by_next = Registry.build ~seed:42L name in
      let buf = Array.make 5_000 (-1) in
      for _ = 1 to 20 do
        let len = Rng.int rng ~bound:4_097 in
        let pos = Rng.int rng ~bound:(Array.length buf - len + 1) in
        Gen.fill by_fill buf pos len;
        for i = pos to pos + len - 1 do
          let want = Gen.next_packed by_next in
          if buf.(i) <> want then
            Alcotest.failf "%s: entry %d of a %d-entry fill is %d, next_packed %d" name (i - pos)
              len buf.(i) want
        done
      done;
      Alcotest.check_raises "a range past the end" (Invalid_argument "Gen.fill") (fun () ->
          Gen.fill by_fill buf 1 (Array.length buf)))
    Registry.names

(* The steady-state generation path allocates nothing: packed entries,
   unboxed RNG state, float draws that never leave their function.  The
   gate is the ROADMAP's 1 word/access; every workload measures 0. *)
let test_gen_iter_allocation_gate () =
  List.iter
    (fun name ->
      let g = Registry.build ~seed:42L name in
      let n = 200_000 in
      let sink = ref 0 in
      let feed addr write = sink := !sink + addr + Bool.to_int write in
      Gen.iter ~stage:"test" g 1000 feed;
      let w0 = Gc.minor_words () in
      Gen.iter ~stage:"test" g n feed;
      let per_access = (Gc.minor_words () -. w0) /. float_of_int n in
      if per_access > 1.0 then
        Alcotest.failf "%s: Gen.iter allocates %.2f minor words per access (gate: 1)" name
          per_access)
    Registry.names

let test_generators_seed_sensitivity () =
  let g1 = Registry.build ~seed:5L "spec2000-mix" in
  let g2 = Registry.build ~seed:6L "spec2000-mix" in
  Alcotest.(check bool) "different seeds differ" true (Gen.take g1 200 <> Gen.take g2 200)

let test_registry () =
  Alcotest.(check int) "seven workloads" 7 (List.length Registry.all);
  Alcotest.(check bool) "find works" true (Registry.find "tpcc" <> None);
  Alcotest.(check bool) "unknown is None" true (Registry.find "nope" = None);
  Alcotest.(check bool) "headline subset" true
    (List.for_all (fun w -> Registry.find w <> None) Registry.headline)

let test_registry_unknown_build () =
  Alcotest.(check bool) "build unknown raises" true
    (try
       ignore (Registry.build "nope");
       false
     with Invalid_argument _ -> true)

let test_spec_variants_differ () =
  let take v = Gen.take (Suites.spec_like ~variant:v ~seed:1L ()) 500 in
  Alcotest.(check bool) "gcc and mcf differ" true (take Suites.Gcc <> take Suites.Mcf)

(* --- miss rates -------------------------------------------------------------- *)

let n_test = 300_000

let test_l1_missrate_plausible () =
  List.iter
    (fun w ->
      let p = Missrate.simulate ~workload:w ~l1_size:(kb 16) ~l2_size:(mb 1) ~n:n_test () in
      Alcotest.(check bool)
        (Printf.sprintf "%s L1 miss %.1f%% in (0.5,25)" w (100.0 *. p.Missrate.l1_miss))
        true
        (p.Missrate.l1_miss > 0.005 && p.Missrate.l1_miss < 0.25);
      Alcotest.(check bool) "l2 local in (0,1)" true
        (p.Missrate.l2_local > 0.0 && p.Missrate.l2_local < 1.0);
      Alcotest.(check bool) "global <= l1 miss" true
        (p.Missrate.l2_global <= p.Missrate.l1_miss +. 1e-9))
    Registry.headline

let test_l2_curve_decreasing () =
  let sizes = [| kb 256; kb 512; mb 1; mb 2 |] in
  List.iter
    (fun w ->
      let c = Missrate.l2_curve ~workload:w ~l1_size:(kb 16) ~l2_sizes:sizes ~n:n_test () in
      for i = 1 to Array.length sizes - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%s curve non-increasing at %d" w i)
          true
          (c.Missrate.l2_local_rates.(i) <= c.Missrate.l2_local_rates.(i - 1) +. 1e-9)
      done)
    Registry.headline

let test_l1_sweep_decreasing () =
  let sizes = [| kb 4; kb 16; kb 64 |] in
  let ms = Missrate.l1_sweep ~workload:"spec2000-mix" ~l1_sizes:sizes ~n:n_test () in
  Alcotest.(check bool) "bigger L1 fewer misses" true (ms.(2) < ms.(0))

let test_averaged_curve () =
  let sizes = [| kb 256; mb 1 |] in
  let avg =
    Missrate.averaged_l2_curve ~workloads:[ "spec2000-gcc"; "tpcc" ] ~l1_size:(kb 16)
      ~l2_sizes:sizes ~n:n_test ()
  in
  let a = Missrate.l2_curve ~workload:"spec2000-gcc" ~l1_size:(kb 16) ~l2_sizes:sizes ~n:n_test () in
  let b = Missrate.l2_curve ~workload:"tpcc" ~l1_size:(kb 16) ~l2_sizes:sizes ~n:n_test () in
  let expected = (a.Missrate.l2_local_rates.(0) +. b.Missrate.l2_local_rates.(0)) /. 2.0 in
  Alcotest.(check bool) "mean of curves" true
    (Float.abs (avg.Missrate.l2_local_rates.(0) -. expected) < 1e-12)

let test_memoisation () =
  (* second call must return the identical cached value *)
  let p1 = Missrate.simulate ~workload:"tpcc" ~l1_size:(kb 16) ~l2_size:(mb 1) ~n:n_test () in
  let p2 = Missrate.simulate ~workload:"tpcc" ~l1_size:(kb 16) ~l2_size:(mb 1) ~n:n_test () in
  Alcotest.(check bool) "memoised" true (p1 = p2)

(* A checkpoint journal written before the trace generation joined the
   miss-rate keys holds its slots under the tagless keys below, the
   strings the earlier generation rendered.  Armed under the current
   code, neither slot may be served: each is recomputed from today's
   traces and journaled under its new key.  A build that versions only
   the context fingerprint serves both stale values. *)
let test_stale_journal_recomputes () =
  let w = "spec2000-gcc" and n = 20_000 in
  let l1_size = kb 16 and l2_size = kb 256 in
  let curve () =
    (Missrate.averaged_l2_curve ~workloads:[ w ] ~l1_size ~l2_sizes:[| l2_size |] ~n ())
      .Missrate.l2_local_rates
  in
  let point () =
    List.hd
      (Missrate.simulate_many ~workload:w ~n
         [ Missrate.config ~l1_size ~l2_size ~l2_assoc:8 () ])
  in
  Missrate.clear_cache ();
  let fresh_curve = curve () and fresh_point = point () in
  let stale_curve =
    {
      Missrate.workload = w;
      l1_size;
      l1_miss_rate = 0.5;
      l2_sizes = [| l2_size |];
      l2_local_rates = [| 0.125 |];
    }
  in
  let stale_point = { Missrate.l1_miss = 0.5; l2_local = 0.25; l2_global = 0.125 } in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "stale-journal-%d" (Unix.getpid ()))
  in
  let store = Store.open_fresh ~dir in
  Fun.protect
    ~finally:(fun () ->
      Sweep.set_journal None;
      Store.close store;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir;
      Missrate.clear_cache ())
    (fun () ->
      Sweep.set_journal (Some store);
      ignore
        (Sweep.journaled
           ~key:"missrate.l2-curve\x00curve2:spec2000-gcc:16384:4:64:42:20000:262144"
           (fun () -> stale_curve));
      ignore
        (Sweep.journaled
           ~key:"missrate.l1-sweep\x00walk1:sim:spec2000-gcc:16384:262144:4:8:64:lru:42:20000"
           (fun () -> [| stale_point |]));
      Alcotest.(check int) "two stale slots journaled" 2 (Store.appended store);
      Missrate.clear_cache ();
      Alcotest.(check (array (float 0.0))) "curve recomputed, not served" fresh_curve
        (curve ());
      Alcotest.(check bool) "point recomputed, not served" true (point () = fresh_point);
      Alcotest.(check int) "no stale slot served" 0 (Store.served store);
      Alcotest.(check int) "both recomputed slots journaled" 4 (Store.appended store))

let suite =
  [
    Alcotest.test_case "sequential generator" `Quick test_sequential;
    Alcotest.test_case "cyclic generator" `Quick test_cyclic;
    Alcotest.test_case "uniform random in range" `Quick test_uniform_random_in_range;
    Alcotest.test_case "mix weights" `Quick test_mix_weights;
    Alcotest.test_case "write fraction" `Quick test_write_fraction;
    Alcotest.test_case "locality walker region" `Quick test_locality_walker_region;
    Alcotest.test_case "zipf blocks region and runs" `Quick test_zipf_blocks_region_and_runs;
    Alcotest.test_case "stream wraps" `Quick test_stream_wraps;
    Alcotest.test_case "generators deterministic" `Quick test_generators_deterministic;
    Alcotest.test_case "generators known answers (seed 42)" `Quick
      test_generators_known_answers;
    Alcotest.test_case "chunk draw equals next_packed" `Quick test_fill_equals_next_packed;
    Alcotest.test_case "stale journal slots recompute" `Quick test_stale_journal_recomputes;
    Alcotest.test_case "alloc gate: Gen.iter allocates <= 1 minor word/access" `Quick
      test_gen_iter_allocation_gate;
    Alcotest.test_case "seed sensitivity" `Quick test_generators_seed_sensitivity;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "unknown workload" `Quick test_registry_unknown_build;
    Alcotest.test_case "spec variants differ" `Quick test_spec_variants_differ;
    Alcotest.test_case "L1 miss rates plausible" `Slow test_l1_missrate_plausible;
    Alcotest.test_case "L2 curves decreasing" `Slow test_l2_curve_decreasing;
    Alcotest.test_case "L1 sweep decreasing" `Slow test_l1_sweep_decreasing;
    Alcotest.test_case "averaged curve" `Slow test_averaged_curve;
    Alcotest.test_case "memoisation" `Slow test_memoisation;
  ]
