(* Tests for the Mattson reuse-distance profiler, including equivalence
   with direct fully-associative LRU simulation — the correctness core
   of the miss-rate machinery. *)

module Mattson = Nmcache_cachesim.Mattson
module Cache = Nmcache_cachesim.Cache
module Replacement = Nmcache_cachesim.Replacement
module Stats = Nmcache_cachesim.Stats
module Rng = Nmcache_numerics.Rng
module Gen = Nmcache_workload.Gen
module Registry = Nmcache_workload.Registry

let test_simple_distances () =
  let m = Mattson.create ~block_bytes:64 () in
  (* A B A: distance of the second A is 1 (B in between) *)
  Mattson.access m 0;
  Mattson.access m 64;
  Mattson.access m 0;
  Alcotest.(check (list (pair int int))) "histogram" [ (1, 1) ] (Mattson.histogram m);
  Alcotest.(check int) "distinct" 2 (Mattson.distinct_blocks m);
  Alcotest.(check int) "accesses" 3 (Mattson.accesses m)

let test_immediate_reuse () =
  let m = Mattson.create ~block_bytes:64 () in
  Mattson.access m 0;
  Mattson.access m 32;
  (* same block *)
  Alcotest.(check (list (pair int int))) "distance 0" [ (0, 1) ] (Mattson.histogram m)

let test_cyclic_distances () =
  (* cycling through k blocks gives steady-state distance k-1 *)
  let k = 8 in
  let m = Mattson.create ~block_bytes:64 () in
  for _ = 1 to 5 do
    for i = 0 to k - 1 do
      Mattson.access m (i * 64)
    done
  done;
  let hist = Mattson.histogram m in
  Alcotest.(check (list (pair int int))) "all warm distances are k-1"
    [ (k - 1, (5 * k) - k) ]
    hist;
  (* capacity k holds the loop; capacity k-1 thrashes *)
  Alcotest.(check int) "fits" k (Mattson.misses_at m ~capacity_blocks:k);
  Alcotest.(check int) "thrashes"
    (5 * k)
    (Mattson.misses_at m ~capacity_blocks:(k - 1))

let test_curve_monotone () =
  let m = Mattson.create ~block_bytes:64 () in
  let rng = Rng.create ~seed:12L in
  for _ = 1 to 50_000 do
    Mattson.access m (64 * Rng.int rng ~bound:4096)
  done;
  let caps = [| 16; 64; 256; 1024; 4096 |] in
  let curve = Mattson.miss_ratio_curve m ~capacities:caps in
  for i = 1 to Array.length curve - 1 do
    Alcotest.(check bool) "non-increasing" true (curve.(i) <= curve.(i - 1) +. 1e-12)
  done

let test_measuring_flag () =
  let m = Mattson.create ~block_bytes:64 () in
  Mattson.set_measuring m false;
  for i = 0 to 99 do
    Mattson.access m (i * 64)
  done;
  Alcotest.(check int) "warmup not counted" 0 (Mattson.accesses m);
  Alcotest.(check int) "no cold misses recorded" 0 (Mattson.cold_misses m);
  Mattson.set_measuring m true;
  (* re-touch a warm block: its distance must reflect the warmup stack *)
  Mattson.access m 0;
  Alcotest.(check int) "one measured access" 1 (Mattson.accesses m);
  Alcotest.(check (list (pair int int))) "distance spans warmup" [ (99, 1) ]
    (Mattson.histogram m)

let test_compaction () =
  (* force timestamp compaction with a small initial capacity *)
  let m = Mattson.create ~initial_capacity:128 ~block_bytes:64 () in
  let rng = Rng.create ~seed:13L in
  let reference = Mattson.create ~initial_capacity:(1 lsl 20) ~block_bytes:64 () in
  let trace = Array.init 5_000 (fun _ -> 64 * Rng.int rng ~bound:100) in
  Array.iter
    (fun a ->
      Mattson.access m a;
      Mattson.access reference a)
    trace;
  Alcotest.(check (list (pair int int))) "compaction preserves histogram"
    (Mattson.histogram reference) (Mattson.histogram m)

(* A 64-entry timestamp floor makes the profiler compact every time its
   timestamps reach 4x the footprint: every ~3 footprints of accesses
   once grown, and at each doubling while it grows.  The CDFs are known
   answers first computed with the list-sorting compaction this one
   replaced, and recaptured with this one when the traces moved to
   rejection-inversion Zipf sampling (trace generation [ri1]): an MD5
   over "dist:suffix;" pairs of the measured second half of 200 000
   accesses at seed 42, plus the counts beside it.  A 100-block
   loop (compacting every 300 accesses, over 600 times) has every warm
   access at distance 99. *)
let test_compaction_known_answers () =
  let profile ~warm ~n g =
    let m = Mattson.create ~initial_capacity:64 ~block_bytes:64 () in
    Mattson.set_measuring m false;
    Gen.iter ~stage:"test" g warm (fun a _ -> Mattson.access m a);
    Mattson.set_measuring m true;
    Gen.iter ~stage:"test" g (n - warm) (fun a _ -> Mattson.access m a);
    m
  in
  List.iter
    (fun (workload, distinct, cold, k, md5) ->
      let m = profile ~warm:100_000 ~n:200_000 (Registry.build ~seed:42L workload) in
      let dists, suffix = Mattson.cdf m in
      let b = Buffer.create 4096 in
      Array.iteri (fun i d -> Buffer.add_string b (Printf.sprintf "%d:%d;" d suffix.(i))) dists;
      Alcotest.(check (list int))
        (workload ^ ": distinct, measured, cold, distances")
        [ distinct; 100_000; cold; k ]
        [ Mattson.distinct_blocks m; Mattson.accesses m; Mattson.cold_misses m; Array.length dists ];
      Alcotest.(check string) (workload ^ ": CDF digest") md5
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    [
      ("spec2000-gcc", 6431, 2705, 1877, "093eb438140bb233bd56f9ecbeb1eb57");
      ("tpcc", 10974, 5195, 1300, "0356ecd79b71af6433fc513fa4bf4c31");
      ("spec2000-mix", 7764, 3388, 1940, "ba026ff4697d203e7ea57b03c5d966d1");
    ];
  let m = profile ~warm:100 ~n:200_000 (Gen.cyclic ~name:"loop" ~length:100 ()) in
  Alcotest.(check (pair (array int) (array int))) "loop CDF" ([| 99 |], [| 199_900 |])
    (Mattson.cdf m)

(* Property: Mattson misses = direct fully-associative LRU simulation. *)
let prop_matches_fullassoc_lru =
  QCheck.Test.make ~count:25 ~name:"Mattson = fully-associative LRU simulation"
    Generators.mattson_case_arb
    (fun (seed, log_cap) ->
      let capacity = 1 lsl log_cap in
      let m = Mattson.create ~block_bytes:64 () in
      let cache =
        Cache.create ~size_bytes:(capacity * 64) ~assoc:capacity ~block_bytes:64
          ~policy:Replacement.Lru ()
      in
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      for _ = 1 to 3_000 do
        (* keep all blocks in set 0 of the cache: stride = capacity blocks *)
        let b = Rng.int rng ~bound:200 in
        let addr_cache = b * 64 * capacity in
        let addr_mattson = b * 64 in
        ignore (Cache.access cache addr_cache ~write:false);
        Mattson.access m addr_mattson
      done;
      (Cache.stats cache).Stats.misses = Mattson.misses_at m ~capacity_blocks:capacity)

(* [Mattson.run] is [Mattson.access] on each packed entry: the same
   histogram, counts and CDF after every piece, with measuring switched
   between pieces as a walk's warm-up cut does, and a timestamp space
   small enough that compaction runs inside pieces. *)
let prop_run_matches_access =
  QCheck.Test.make ~count:25 ~name:"Mattson.run = Mattson.access on each entry (any cuts)"
    Generators.trace_seed_arb
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let n = 5_000 in
      let entries =
        Array.init n (fun _ ->
            let b = if Rng.int rng ~bound:4 = 0 then Rng.int rng ~bound:5_000 else Rng.int rng ~bound:60 in
            let addr = (64 * b) + Rng.int rng ~bound:64 in
            (addr lsl 1) lor Rng.int rng ~bound:2)
      in
      let cuts =
        List.sort compare (0 :: n :: List.init (1 + Rng.int rng ~bound:6) (fun _ -> Rng.int rng ~bound:(n + 1)))
      in
      let by_access = Mattson.create ~initial_capacity:64 ~block_bytes:64 ()
      and by_run = Mattson.create ~initial_capacity:64 ~block_bytes:64 () in
      let same at =
        let view m = (Mattson.histogram m, Mattson.cold_misses m, Mattson.accesses m,
                      Mattson.distinct_blocks m, Mattson.cdf m) in
        if view by_access <> view by_run then
          QCheck.Test.fail_reportf "seed %d: profiles differ after %s" seed at
      in
      let rec pieces measuring = function
        | a :: (b :: _ as rest) ->
          Mattson.set_measuring by_access measuring;
          Mattson.set_measuring by_run measuring;
          for i = a to b - 1 do
            Mattson.access by_access (entries.(i) lsr 1)
          done;
          Mattson.run by_run entries a (b - a);
          same (Printf.sprintf "[%d, %d)" a b);
          pieces (not measuring) rest
        | _ -> ()
      in
      pieces false cuts;
      (match Mattson.run by_run entries (n - 1) 2 with
       | () -> QCheck.Test.fail_reportf "a range past the end was accepted"
       | exception Invalid_argument _ -> ());
      true)

(* Registered workloads (shared generator): the one-pass miss-ratio
   curve must be a valid non-increasing curve on every real trace. *)
let prop_workload_curve_monotone =
  QCheck.Test.make ~count:8 ~name:"miss-ratio curve non-increasing on real workloads"
    Generators.workload_arb
    (fun name ->
      let g = Registry.build ~seed:7L name in
      let m = Mattson.create ~block_bytes:64 () in
      Gen.iter ~stage:"test" g 20_000 (fun addr _ -> Mattson.access m addr);
      let curve = Mattson.miss_ratio_curve m ~capacities:[| 4; 16; 64; 256; 1024 |] in
      let ok = ref (Array.for_all (fun r -> r >= 0.0 && r <= 1.0) curve) in
      for i = 0 to Array.length curve - 2 do
        if curve.(i) < curve.(i + 1) -. 1e-12 then ok := false
      done;
      !ok)

(* The suffix-CDF answer path must agree exactly with the old
   per-capacity histogram fold it replaced. *)
let test_cdf_equals_fold () =
  let m = Mattson.create ~block_bytes:64 () in
  let rng = Rng.create ~seed:14L in
  (* mixed locality: uniform noise plus a hot loop, with a warmup split
     so cold accounting is exercised too *)
  Mattson.set_measuring m false;
  for _ = 1 to 5_000 do
    Mattson.access m (64 * Rng.int rng ~bound:3000)
  done;
  Mattson.set_measuring m true;
  for i = 1 to 25_000 do
    let b = if i mod 3 = 0 then i mod 17 else Rng.int rng ~bound:3000 in
    Mattson.access m (64 * b)
  done;
  let hist = Mattson.histogram m in
  let cold = Mattson.cold_misses m in
  let acc = Mattson.accesses m in
  let caps = [| 1; 2; 3; 7; 16; 100; 256; 999; 4096; 1_000_000 |] in
  let curve = Mattson.miss_ratio_curve m ~capacities:caps in
  Array.iteri
    (fun i cap ->
      (* the pre-CDF implementation: one full fold per capacity *)
      let warm = List.fold_left (fun s (d, c) -> if d >= cap then s + c else s) 0 hist in
      let expected = float_of_int (cold + warm) /. float_of_int acc in
      Alcotest.(check bool)
        (Printf.sprintf "cap %d: cdf %.17g = fold %.17g" cap curve.(i) expected)
        true
        (curve.(i) = expected);
      Alcotest.(check int)
        (Printf.sprintf "misses_at agrees at %d" cap)
        (cold + warm)
        (Mattson.misses_at m ~capacity_blocks:cap))
    caps;
  (* the CDF arrays themselves: suffix at the smallest distance counts
     every warm access; suffix beyond the largest counts none *)
  let dists, suffix = Mattson.cdf m in
  let total_warm = List.fold_left (fun s (_, c) -> s + c) 0 hist in
  Alcotest.(check int) "suffix at 0 covers all warm accesses" total_warm
    (Mattson.suffix_at ~dists ~suffix 0);
  Alcotest.(check int) "suffix past max distance is empty" 0
    (Mattson.suffix_at ~dists ~suffix (dists.(Array.length dists - 1) + 1))

let test_validation () =
  Alcotest.(check bool) "bad block size" true
    (try
       ignore (Mattson.create ~block_bytes:48 ());
       false
     with Invalid_argument _ -> true);
  let m = Mattson.create ~block_bytes:64 () in
  Alcotest.(check bool) "bad capacity" true
    (try
       ignore (Mattson.misses_at m ~capacity_blocks:0);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "simple distances" `Quick test_simple_distances;
    Alcotest.test_case "immediate reuse" `Quick test_immediate_reuse;
    Alcotest.test_case "cyclic distances" `Quick test_cyclic_distances;
    Alcotest.test_case "miss curve monotone" `Quick test_curve_monotone;
    Alcotest.test_case "measuring flag" `Quick test_measuring_flag;
    Alcotest.test_case "timestamp compaction" `Quick test_compaction;
    Alcotest.test_case "compaction known answers" `Quick test_compaction_known_answers;
    Alcotest.test_case "suffix CDF = per-capacity fold" `Quick test_cdf_equals_fold;
    Alcotest.test_case "validation" `Quick test_validation;
  ]
  @ List.map Generators.to_alcotest
      [ prop_matches_fullassoc_lru; prop_run_matches_access; prop_workload_curve_monotone ]
