(* Tests for the profile-once derivation layer: pinned seed-suite stats
   for the flat-array simulator, exactness and monotonicity of derived
   curves, grid traversal accounting, fused-walk equivalence, and
   memo-key hygiene. *)

module Cache = Nmcache_cachesim.Cache
module Intmap = Nmcache_cachesim.Intmap
module Mattson = Nmcache_cachesim.Mattson
module Replacement = Nmcache_cachesim.Replacement
module Stats = Nmcache_cachesim.Stats
module Stream_trace = Nmcache_cachesim.Stream_trace
module Metrics = Nmcache_engine.Metrics
module Gen = Nmcache_workload.Gen
module Registry = Nmcache_workload.Registry
module Missrate = Nmcache_workload.Missrate
module Profile = Nmcache_workload.Profile
module Rng = Nmcache_numerics.Rng

let kb n = n * 1024
let walks () = Metrics.counter_value "workload.walks"

(* --- flat-array simulator: pinned seed-suite stats ---------------------- *)

(* These numbers were captured from the pre-refactor (Hashtbl-based)
   simulator at seed 42, and the shift/mask + Intmap hot loop reproduced
   every one of them byte-for-byte.  They were recaptured from that loop
   when the traces moved to rejection-inversion Zipf sampling (trace
   generation [ri1]); any later change to them is a simulator change. *)

let check_stats name (s : Stats.t) (acc, hits, misses, ra, wa, ev, wb, cold) =
  Alcotest.(check (list int))
    name
    [ acc; hits; misses; ra; wa; ev; wb; cold ]
    [
      s.Stats.accesses; s.Stats.hits; s.Stats.misses; s.Stats.read_accesses;
      s.Stats.write_accesses; s.Stats.evictions; s.Stats.writebacks;
      s.Stats.cold_misses;
    ]

let run_cache ~workload ~size ~assoc ~block ~policy ~n =
  let c = Cache.create ~size_bytes:size ~assoc ~block_bytes:block ~policy () in
  let g = Registry.build ~seed:42L workload in
  Gen.iter ~stage:"test" g n (fun addr write -> ignore (Cache.access c addr ~write));
  Cache.stats c

let test_pinned_single_level () =
  let n = 200_000 in
  check_stats "spec2000-mix 16K/4w lru"
    (run_cache ~workload:"spec2000-mix" ~size:(kb 16) ~assoc:4 ~block:64
       ~policy:Replacement.Lru ~n)
    (200000, 188032, 11968, 139955, 60045, 11712, 10870, 7764);
  check_stats "spec2000-mix 8K/2w fifo"
    (run_cache ~workload:"spec2000-mix" ~size:(kb 8) ~assoc:2 ~block:64
       ~policy:Replacement.Fifo ~n)
    (200000, 182074, 17926, 139955, 60045, 17798, 16342, 7764);
  check_stats "tpcc 16K/8w plru"
    (run_cache ~workload:"tpcc" ~size:(kb 16) ~assoc:8 ~block:64 ~policy:Replacement.Plru
       ~n)
    (200000, 180889, 19111, 131799, 68201, 18855, 16955, 10974);
  check_stats "specweb 4K/1w/32B lru"
    (run_cache ~workload:"specweb" ~size:(kb 4) ~assoc:1 ~block:32 ~policy:Replacement.Lru
       ~n)
    (200000, 139161, 60839, 187969, 12031, 60711, 10921, 22852);
  check_stats "tpcc 32K/4w random"
    (run_cache ~workload:"tpcc" ~size:(kb 32) ~assoc:4 ~block:64
       ~policy:(Replacement.Random 17) ~n)
    (200000, 183533, 16467, 131799, 68201, 15955, 14998, 10974)

let test_pinned_hierarchy () =
  let l1 = Cache.create ~size_bytes:(kb 16) ~assoc:4 ~block_bytes:64 ~policy:Replacement.Lru () in
  let l2 = Cache.create ~size_bytes:(kb 256) ~assoc:8 ~block_bytes:64 ~policy:Replacement.Lru () in
  let p = Cache.pair ~l1 ~l2 in
  let g = Registry.build ~seed:42L "spec2000-mix" in
  Gen.iter ~stage:"test" g 200_000 (fun addr write -> ignore (Cache.step p addr ~write));
  check_stats "hierarchy L1" (Cache.stats l1)
    (200000, 188032, 11968, 139955, 60045, 11712, 10870, 7764);
  check_stats "hierarchy L2" (Cache.stats l2)
    (22838, 14645, 8193, 11968, 10870, 4106, 3779, 7764);
  Alcotest.(check int) "memory reads" 8193 p.Cache.memory_reads;
  Alcotest.(check int) "memory writes" 3779 p.Cache.memory_writes

let test_pinned_mattson () =
  let m = Mattson.create ~block_bytes:64 () in
  let g = Registry.build ~seed:42L "tpcc" in
  Gen.iter ~stage:"test" g 100_000 (fun addr _ -> Mattson.access m addr);
  let hist = Mattson.histogram m in
  Alcotest.(check (list int)) "profiler digest"
    [ 100000; 5779; 5779; 908; 3159531; 18922; 9485; 5804 ]
    [
      Mattson.accesses m;
      Mattson.cold_misses m;
      Mattson.distinct_blocks m;
      List.length hist;
      List.fold_left (fun acc (d, c) -> acc + (d * c)) 0 hist;
      Mattson.misses_at m ~capacity_blocks:16;
      Mattson.misses_at m ~capacity_blocks:256;
      Mattson.misses_at m ~capacity_blocks:4096;
    ]

(* --- Intmap ------------------------------------------------------------- *)

let test_intmap_matches_hashtbl () =
  let im = Intmap.create ~initial_capacity:16 () in
  let ht = Hashtbl.create 16 in
  let rng = Rng.create ~seed:15L in
  for i = 1 to 20_000 do
    let k = Rng.int rng ~bound:4_000 in
    if i mod 5 = 0 then begin
      let fresh_im = Intmap.add_if_absent im k in
      let fresh_ht = not (Hashtbl.mem ht k) in
      if fresh_ht then Hashtbl.replace ht k 0;
      Alcotest.(check bool) "add_if_absent agrees" fresh_ht fresh_im
    end
    else if i mod 5 = 1 then begin
      let old = Option.value (Hashtbl.find_opt ht k) ~default:(-1) in
      Alcotest.(check int) "exchange returns the old binding" old
        (Intmap.exchange im k i ~default:(-1));
      Hashtbl.replace ht k i
    end
    else begin
      Intmap.replace im k i;
      Hashtbl.replace ht k i
    end
  done;
  Alcotest.(check int) "length" (Hashtbl.length ht) (Intmap.length im);
  Hashtbl.iter
    (fun k v -> Alcotest.(check int) (Printf.sprintf "key %d" k) v (Intmap.find im k ~default:(-1)))
    ht;
  Alcotest.(check bool) "absent key" true (Intmap.find im 999_999 ~default:(-1) = -1);
  let sum_im = Intmap.fold (fun _ v acc -> acc + v) im 0 in
  let sum_ht = Hashtbl.fold (fun _ v acc -> acc + v) ht 0 in
  Alcotest.(check int) "fold sum" sum_ht sum_im;
  Intmap.map_values (fun v -> v + 1) im;
  Alcotest.(check int) "map_values keeps the keys" (Hashtbl.length ht) (Intmap.length im);
  Hashtbl.iter
    (fun k v ->
      Alcotest.(check int) (Printf.sprintf "mapped key %d" k) (v + 1)
        (Intmap.find im k ~default:(-1)))
    ht

(* --- derived curves ------------------------------------------------------ *)

(* Fully-associative derivation must equal direct simulation exactly,
   warmup discipline included. *)
let prop_fullassoc_exact =
  QCheck.Test.make ~count:6 ~name:"fully-assoc derivation = direct simulation"
    Generators.workload_arb
    (fun workload ->
      let n = 20_000 in
      let prof = Profile.raw ~workload ~n () in
      List.for_all
        (fun cap ->
          let c =
            Cache.create ~size_bytes:(cap * 64) ~assoc:cap ~block_bytes:64
              ~policy:Replacement.Lru ()
          in
          let g = Registry.build ~seed:Registry.default_seed workload in
          let warm = int_of_float (Profile.warmup_fraction *. float_of_int n) in
          let feed addr write = ignore (Cache.access c addr ~write) in
          Gen.iter ~stage:"test" g warm feed;
          Cache.reset_stats c;
          Gen.iter ~stage:"test" g (n - warm) feed;
          (Cache.stats c).Stats.misses = Profile.misses_at prof ~capacity_blocks:cap)
        [ 16; 64; 512 ])

(* Derived curves are monotone non-increasing in capacity for every
   associativity, including across the exact/corrected boundary. *)
let prop_derived_monotone =
  QCheck.Test.make ~count:10 ~name:"derived set-assoc curves monotone in capacity"
    QCheck.(pair Generators.workload_arb (oneofl [ 1; 2; 4; 8 ]))
    (fun (workload, assoc) ->
      let prof = Profile.raw ~workload ~n:20_000 () in
      let caps = [ assoc; 2 * assoc; 16; 64; 256; 1024; 4096; 16384 ] in
      let caps = List.sort_uniq compare caps in
      let rates =
        List.map (fun c -> Profile.setassoc_miss_rate prof ~capacity_blocks:c ~assoc) caps
      in
      let rec mono = function
        | a :: (b :: _ as rest) -> a +. 1e-12 >= b && mono rest
        | _ -> true
      in
      List.for_all (fun r -> r >= 0.0 && r <= 1.0) rates && mono rates)

(* An L1×L2 grid builds exactly one profile per (workload, L1 size) in
   one walk per workload, and no per-point simulations; re-querying
   new L2 capacities is free. *)
let test_grid_traversal_accounting () =
  let seed = 1_234_577L in
  let workloads = [ "spec2000-mix"; "specweb" ] in
  let l1_sizes = [| kb 8; kb 16; kb 32 |] in
  let l2_sizes = [| kb 256; kb 1024; kb 4096 |] in
  let n = 20_000 in
  let sims0 = Metrics.counter_value "cachesim.simulations" in
  let profs0 = Metrics.counter_value "cachesim.mattson_curves" in
  let walks0 = walks () in
  let g = Missrate.grid ~seed ~workloads ~l1_sizes ~l2_sizes ~n () in
  let g2 = Missrate.grid ~seed ~workloads ~l1_sizes ~l2_sizes:[| kb 512; kb 2048 |] ~n () in
  let sims = Metrics.counter_value "cachesim.simulations" - sims0 in
  let profs = Metrics.counter_value "cachesim.mattson_curves" - profs0 in
  Alcotest.(check int) "one profile per (workload, L1 size)"
    (List.length workloads * Array.length l1_sizes)
    profs;
  Alcotest.(check int) "one walk per workload" (List.length workloads) (walks () - walks0);
  Alcotest.(check int) "no per-point simulations" 0 sims;
  (* the grid's averaged curves are bitwise those of averaged_l2_curve *)
  Array.iteri
    (fun i l1_size ->
      let direct = Missrate.averaged_l2_curve ~seed ~workloads ~l1_size ~l2_sizes ~n () in
      Alcotest.(check bool)
        (Printf.sprintf "grid = averaged_l2_curve at %d" l1_size)
        true
        (g.Missrate.g_averaged.(i) = direct))
    l1_sizes;
  (* shape of the per-workload plane *)
  Alcotest.(check int) "per-workload rows" (Array.length l1_sizes)
    (Array.length g.Missrate.g_per_workload);
  Array.iter
    (fun row ->
      Alcotest.(check int) "per-workload cols" (List.length workloads) (Array.length row))
    g.Missrate.g_per_workload;
  Alcotest.(check int) "requeried grid kept l2 sizes" 2
    (Array.length g2.Missrate.g_l2_sizes)

(* The derived LRU l1_sweep agrees with the profile it is defined by. *)
let test_l1_sweep_derived () =
  let seed = 1_234_578L in
  let n = 20_000 in
  let workload = "tpcc" in
  let sizes = [| kb 4; kb 16; kb 64 |] in
  let sweep = Missrate.l1_sweep ~seed ~workload ~l1_sizes:sizes ~n () in
  let prof = Profile.raw ~seed ~workload ~n () in
  Array.iteri
    (fun i l1_size ->
      let expected =
        Profile.setassoc_miss_rate prof ~capacity_blocks:(l1_size / 64) ~assoc:4
      in
      Alcotest.(check (float 0.0)) (Printf.sprintf "size %d" l1_size) expected sweep.(i))
    sizes;
  Alcotest.(check bool) "bigger L1 misses less" true (sweep.(2) < sweep.(0))

(* --- fan-out walks --------------------------------------------------------- *)

module Prefetch = Nmcache_cachesim.Prefetch

(* bit-for-bit, nan included *)
let same_bytes label a b =
  Alcotest.(check string) label (Marshal.to_string a []) (Marshal.to_string b [])

(* a prefetcher's demand counts over the measured half, plus its
   lifetime prefetch counts *)
let prefetcher degree =
  let l1 = Cache.create ~size_bytes:(kb 16) ~assoc:4 ~block_bytes:64 ~policy:Replacement.Lru () in
  let l2 = Cache.create ~size_bytes:(kb 256) ~assoc:8 ~block_bytes:64 ~policy:Replacement.Lru () in
  let p = Prefetch.create ~degree ~l1 ~l2 () in
  let measuring = ref false and demand = ref 0 and misses = ref 0 in
  ( {
      Gen.feed =
        (fun entries pos len ->
          for i = pos to pos + len - 1 do
            let e = entries.(i) in
            let addr = Stream_trace.addr e and write = Stream_trace.is_write e in
            let o = Prefetch.access p addr ~write in
            if !measuring && not (Prefetch.l1_hit o) then begin
              incr demand;
              if not (Prefetch.l2_hit o) then incr misses
            end
          done);
      measure = (fun () -> measuring := true);
    },
    fun () -> (!demand, !misses, Prefetch.prefetches p, Prefetch.useful_prefetches p) )

(* One fused walk gives every consumer exactly what a walk of its own
   gives it, for every consumer kind the batch fuses. *)
let test_fused_walk_equivalence () =
  let n = 20_000 and workload = "spec2000-mix" in
  let profiles =
    List.map (fun block -> (Profile.Raw, block)) [ 32; 64; 128 ]
    @ List.map
        (fun s -> (Profile.L1_filtered { l1_size = kb s; l1_assoc = 4 }, 64))
        [ 4; 8; 16; 32; 64 ]
  in
  let policies = [ Replacement.Lru; Replacement.Fifo; Replacement.Random 17; Replacement.Plru ] in
  let configs =
    List.concat_map
      (fun policy -> List.map (fun s -> Missrate.config ~policy ~l1_size:(kb s) ()) [ 4; 16; 64 ])
      (List.tl policies)
    @ List.map
        (fun policy -> Missrate.config ~policy ~l1_size:(kb 16) ~l2_size:(kb 1024) ())
        policies
  in
  List.iter
    (fun seed ->
      let fused_then_single label build members =
        Missrate.clear_cache ();
        let w0 = walks () in
        let fused = build members in
        Alcotest.(check int) (label ^ ": one walk") 1 (walks () - w0);
        Missrate.clear_cache ();
        List.iteri
          (fun i (m, r) ->
            same_bytes (Printf.sprintf "%s %d, seed %Ld" label i seed) (List.hd (build [ m ])) r)
          (List.combine members fused);
        Alcotest.(check int) (label ^ ": one walk each") (1 + List.length members) (walks () - w0)
      in
      fused_then_single "profile" (Profile.build_many ~seed ~workload ~n) profiles;
      fused_then_single "simulation" (Missrate.simulate_many ~seed ~workload ~n) configs;
      let walk degrees =
        let runs = List.map prefetcher degrees in
        Gen.walk ~stage:"test" (Registry.build ~seed workload) n
          (Array.of_list (List.map fst runs));
        List.map (fun (_, result) -> result ()) runs
      in
      let fused = walk [ 0; 1; 2 ] in
      List.iteri
        (fun d r -> same_bytes (Printf.sprintf "prefetch degree %d" d) (List.hd (walk [ d ])) r)
        fused)
    [ 5L; 6L ]

(* One consumer of every kind a reproduction fuses, each running the
   chunk through its kernel, and what it appends to a digest once the
   walk is done: a profile's distances, counts, cold misses and
   accesses, and a simulation's statistics. *)
let ints buf a =
  Buffer.add_int64_le buf (Int64.of_int (Array.length a));
  Array.iter (fun v -> Buffer.add_int64_le buf (Int64.of_int v)) a

let add_stats buf (s : Stats.t) =
  ints buf
    [| s.Stats.accesses; s.Stats.hits; s.Stats.misses; s.Stats.read_accesses;
       s.Stats.write_accesses; s.Stats.evictions; s.Stats.writebacks; s.Stats.cold_misses |]

let cache ?(assoc = 4) ?(policy = Replacement.Lru) size =
  Cache.create ~size_bytes:size ~assoc ~block_bytes:64 ~policy ()

let add_profile m buf =
  let dists, suffix = Mattson.cdf m in
  let k = Array.length dists in
  ints buf dists;
  ints buf (Array.init k (fun i -> if i + 1 < k then suffix.(i) - suffix.(i + 1) else suffix.(i)));
  ints buf [| Mattson.cold_misses m; Mattson.accesses m |]

let raw_consumer block =
  let m = Mattson.create ~block_bytes:block () in
  Mattson.set_measuring m false;
  ( { Gen.feed = Mattson.run m; measure = (fun () -> Mattson.set_measuring m true) },
    add_profile m )

let filtered_consumer ~scratch size =
  let m = Mattson.create ~block_bytes:64 () in
  Mattson.set_measuring m false;
  let l1 = cache size in
  ( {
      Gen.feed =
        (fun entries pos len ->
          Mattson.run m scratch 0 (Cache.run_misses l1 entries pos len ~into:scratch));
      measure =
        (fun () ->
          Cache.reset_stats l1;
          Mattson.set_measuring m true);
    },
    fun buf ->
      add_profile m buf;
      add_stats buf (Cache.stats l1) )

let cache_consumer policy =
  let c = cache ~policy (kb 16) in
  ( { Gen.feed = Cache.run c; measure = (fun () -> Cache.reset_stats c) },
    fun buf -> add_stats buf (Cache.stats c) )

let hierarchy_consumer policy =
  let l1 = cache ~policy (kb 16) and l2 = cache ~assoc:8 ~policy (kb 1024) in
  let p = Cache.pair ~l1 ~l2 in
  ( {
      Gen.feed = Cache.run_pair p;
      measure =
        (fun () ->
          Cache.reset_stats l1;
          Cache.reset_stats l2);
    },
    fun buf ->
      add_stats buf (Cache.stats l1);
      add_stats buf (Cache.stats l2);
      ints buf [| p.Cache.memory_reads; p.Cache.memory_writes |] )

let prefetch_consumer degree =
  let l1 = cache (kb 16) and l2 = cache ~assoc:8 (kb 256) in
  let p = Prefetch.create ~degree ~l1 ~l2 () in
  ( { Gen.feed = Prefetch.run p; measure = (fun () -> Prefetch.reset_demand p) },
    fun buf ->
      let h = Prefetch.hierarchy p in
      add_stats buf (Cache.stats l1);
      add_stats buf (Cache.stats l2);
      ints buf
        [| h.Cache.memory_reads; h.Cache.memory_writes; Prefetch.demand_accesses p;
           Prefetch.demand_misses p; Prefetch.prefetches p; Prefetch.useful_prefetches p |] )

(* raw profiles at 32/64/128 B blocks, L1-filtered profiles behind
   4-64 KB L1s sharing one scratch, FIFO/Random/PLRU L1s, four L1/L2
   hierarchies and next-line prefetchers of degree 0-2 *)
let every_kind () =
  let scratch = Array.make Gen.chunk_size 0 in
  List.map raw_consumer [ 32; 64; 128 ]
  @ List.map (fun s -> filtered_consumer ~scratch (kb s)) [ 4; 8; 16; 32; 64 ]
  @ List.map cache_consumer [ Replacement.Fifo; Replacement.Random 17; Replacement.Plru ]
  @ List.map hierarchy_consumer
      [ Replacement.Lru; Replacement.Fifo; Replacement.Random 17; Replacement.Plru ]
  @ List.map prefetch_consumer [ 0; 1; 2 ]

(* Known answers computed with the per-access consumers ([Mattson.access],
   [Cache.access] behind an L1 filter, [Cache.access], the two-level access,
   [Prefetch.access]) fed one access at a time by the walk the chunked
   one replaced, on spec2000-mix at seed 42.  At n = 200,001 the warm-up
   cut (access 100,000) falls inside the walk's 25th chunk; at n = 3,000
   the walk is one partial chunk. *)
let walk_digests =
  [ (200_001, "3b70cf612247146d8915fe024af91228"); (3_000, "732fe26fb58d116a5c5cae8a1c3631db") ]

let test_walk_pinned () =
  List.iter
    (fun (n, want) ->
      let consumers = every_kind () in
      Gen.walk ~stage:"test" (Registry.build ~seed:42L "spec2000-mix") n
        (Array.of_list (List.map fst consumers));
      let buf = Buffer.create 4096 in
      List.iter (fun (_, add) -> add buf) consumers;
      Alcotest.(check string)
        (Printf.sprintf "%d consumers, n %d" (List.length consumers) n)
        want
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    walk_digests

(* Handing a chunk to a consumer allocates nothing: once 20 consumers
   have grown to a trace's footprint (first-touch pages, stack-distance
   maps), walking that trace again allocates only the walk's span and
   buffer. *)
let test_walk_allocation_gate () =
  let n = 200_000 in
  let consumers =
    Array.of_list
      (List.map fst (every_kind () @ [ raw_consumer 256; hierarchy_consumer Replacement.Lru ]))
  in
  Alcotest.(check int) "20 consumers" 20 (Array.length consumers);
  let walk () = Gen.walk ~stage:"test" (Registry.build ~seed:42L "spec2000-mix") n consumers in
  walk ();
  let w0 = Gc.minor_words () in
  walk ();
  let per_access = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_access > 0.01 then
    Alcotest.failf "a 20-consumer walk allocates %.4f minor words per access (gate: 0.01)"
      per_access

(* --- memo-key hygiene ----------------------------------------------------- *)

let test_combined_key_no_alias () =
  Alcotest.(check bool) "[a+b] and [a;b] keys differ" true
    (Missrate.combined_workloads_key [ "a+b" ]
    <> Missrate.combined_workloads_key [ "a"; "b" ]);
  Alcotest.(check bool) "[a;b+c] and [a+b;c] keys differ" true
    (Missrate.combined_workloads_key [ "a"; "b+c" ]
    <> Missrate.combined_workloads_key [ "a+b"; "c" ]);
  Alcotest.(check string) "length-prefixed rendering" "3:a+b"
    (Missrate.combined_workloads_key [ "a+b" ]);
  Alcotest.(check string) "separator survives" "1:a+1:b"
    (Missrate.combined_workloads_key [ "a"; "b" ])

let suite =
  [
    Alcotest.test_case "pinned single-level stats" `Quick test_pinned_single_level;
    Alcotest.test_case "pinned hierarchy stats" `Quick test_pinned_hierarchy;
    Alcotest.test_case "pinned mattson digest" `Quick test_pinned_mattson;
    Alcotest.test_case "intmap matches hashtbl" `Quick test_intmap_matches_hashtbl;
    Alcotest.test_case "grid traversal accounting" `Quick test_grid_traversal_accounting;
    Alcotest.test_case "l1 sweep is profile-derived" `Quick test_l1_sweep_derived;
    Alcotest.test_case "combined key cannot alias" `Quick test_combined_key_no_alias;
    Alcotest.test_case "fused walk = one walk per consumer" `Quick test_fused_walk_equivalence;
    Alcotest.test_case "walks pinned bit for bit" `Quick test_walk_pinned;
    Alcotest.test_case "alloc gate: a 20-consumer walk allocates <= 0.01 words/access" `Quick
      test_walk_allocation_gate;
  ]
  @ List.map Generators.to_alcotest [ prop_fullassoc_exact; prop_derived_monotone ]
