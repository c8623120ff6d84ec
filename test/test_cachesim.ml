(* Tests for the architectural cache simulator. *)

module Cache = Nmcache_cachesim.Cache
module Hierarchy = Nmcache_cachesim.Hierarchy
module Replacement = Nmcache_cachesim.Replacement
module Stats = Nmcache_cachesim.Stats
module Address = Nmcache_cachesim.Address
module Rng = Nmcache_numerics.Rng

let kb n = n * 1024

let make ?(size = kb 1) ?(assoc = 2) ?(block = 64) ?(policy = Replacement.Lru) () =
  Cache.create ~size_bytes:size ~assoc ~block_bytes:block ~policy ()

(* --- address arithmetic ------------------------------------------------ *)

let test_address () =
  Alcotest.(check int) "block" 2 (Address.block_of 128 ~block_bytes:64);
  Alcotest.(check int) "set" 2 (Address.set_of 128 ~block_bytes:64 ~sets:8);
  Alcotest.(check int) "tag" 0 (Address.tag_of 128 ~block_bytes:64 ~sets:8);
  Alcotest.(check int) "tag nonzero" 1 (Address.tag_of (64 * 8 + 128) ~block_bytes:64 ~sets:8);
  Alcotest.(check int) "roundtrip" 640 (Address.of_block 10 ~block_bytes:64);
  Alcotest.check_raises "log2 invalid" (Invalid_argument "Address.log2: not a power of two")
    (fun () -> ignore (Address.log2 48))

(* --- basic behaviour ---------------------------------------------------- *)

let test_cold_then_hit () =
  let c = make () in
  let o1 = Cache.access c 0 ~write:false in
  Alcotest.(check bool) "first access misses" false (Cache.hit o1);
  let o2 = Cache.access c 0 ~write:false in
  Alcotest.(check bool) "second access hits" true (Cache.hit o2);
  let o3 = Cache.access c 32 ~write:false in
  Alcotest.(check bool) "same block hits" true (Cache.hit o3)

let test_stats_consistency () =
  let c = make () in
  let rng = Rng.create ~seed:3L in
  for _ = 1 to 10_000 do
    ignore (Cache.access c (64 * Rng.int rng ~bound:512) ~write:(Rng.bool rng))
  done;
  let s = Cache.stats c in
  Alcotest.(check int) "hits + misses = accesses" s.Stats.accesses
    (s.Stats.hits + s.Stats.misses);
  Alcotest.(check int) "reads + writes = accesses" s.Stats.accesses
    (s.Stats.read_accesses + s.Stats.write_accesses);
  Alcotest.(check bool) "evictions <= misses" true (s.Stats.evictions <= s.Stats.misses);
  Alcotest.(check bool) "writebacks <= evictions" true
    (s.Stats.writebacks <= s.Stats.evictions)

let test_lru_eviction_order () =
  (* 2-way set; touch A, B (set full), touch A again, then C evicts B *)
  let c = make ~size:(2 * 64) ~assoc:2 ~block:64 () in
  (* all addresses map to the single set *)
  let a = 0 and b = 64 and d = 128 in
  ignore (Cache.access c a ~write:false);
  ignore (Cache.access c b ~write:false);
  ignore (Cache.access c a ~write:false);
  let o = Cache.access c d ~write:false in
  Alcotest.(check bool) "miss inserting C" false (Cache.hit o);
  Alcotest.(check int) "LRU victim is B" 1 (Cache.victim o);
  Alcotest.(check bool) "A still resident" true (Cache.contains c a);
  Alcotest.(check bool) "B evicted" false (Cache.contains c b)

let test_fifo_vs_lru () =
  (* FIFO evicts the oldest insertion even if recently used *)
  let f = make ~size:(2 * 64) ~assoc:2 ~block:64 ~policy:Replacement.Fifo () in
  let a = 0 and b = 64 and d = 128 in
  ignore (Cache.access f a ~write:false);
  ignore (Cache.access f b ~write:false);
  ignore (Cache.access f a ~write:false);
  (* re-touch A: FIFO ignores it *)
  let o = Cache.access f d ~write:false in
  Alcotest.(check int) "FIFO victim is A" 0 (Cache.victim o)

let test_cyclic_lru_thrash () =
  (* loop of N+1 blocks over an N-block LRU cache: steady state misses
     on every access (the classic LRU pathological case) *)
  let blocks = 16 in
  let c = make ~size:(blocks * 64) ~assoc:blocks ~block:64 () in
  (* one set of [blocks] ways *)
  let loop = blocks + 1 in
  for _ = 1 to 3 do
    for i = 0 to loop - 1 do
      ignore (Cache.access c (i * 64 * blocks) ~write:false)
      (* stride keeps them in set 0 *)
    done
  done;
  Cache.reset_stats c;
  for _ = 1 to 5 do
    for i = 0 to loop - 1 do
      ignore (Cache.access c (i * 64 * blocks) ~write:false)
    done
  done;
  let s = Cache.stats c in
  Alcotest.(check int) "all misses" s.Stats.accesses s.Stats.misses

let test_cyclic_fits () =
  (* loop of N blocks over an N-block cache: steady state all hits *)
  let blocks = 16 in
  let c = make ~size:(blocks * 64) ~assoc:blocks ~block:64 () in
  for _ = 1 to 2 do
    for i = 0 to blocks - 1 do
      ignore (Cache.access c (i * 64 * blocks) ~write:false)
    done
  done;
  Cache.reset_stats c;
  for i = 0 to blocks - 1 do
    ignore (Cache.access c (i * 64 * blocks) ~write:false)
  done;
  let s = Cache.stats c in
  Alcotest.(check int) "all hits" s.Stats.accesses s.Stats.hits

let test_writeback_dirty () =
  let c = make ~size:(2 * 64) ~assoc:2 ~block:64 () in
  ignore (Cache.access c 0 ~write:true);
  ignore (Cache.access c 64 ~write:false);
  let o = Cache.access c 128 ~write:false in
  (* victim is block 0 which is dirty *)
  Alcotest.(check bool) "victim dirty" true (Cache.victim_dirty o);
  Alcotest.(check int) "writeback counted" 1 (Cache.stats c).Stats.writebacks

let test_clean_eviction () =
  let c = make ~size:(2 * 64) ~assoc:2 ~block:64 () in
  ignore (Cache.access c 0 ~write:false);
  ignore (Cache.access c 64 ~write:false);
  let o = Cache.access c 128 ~write:false in
  Alcotest.(check bool) "clean victim" false (Cache.victim_dirty o)

let test_plru_basic () =
  let c = make ~size:(4 * 64) ~assoc:4 ~block:64 ~policy:Replacement.Plru () in
  (* fill the set, re-access everything, then insert: the victim must be
     a valid resident block, and a re-touched block should survive *)
  for i = 0 to 3 do
    ignore (Cache.access c (i * 64 * 4) ~write:false)
  done;
  ignore (Cache.access c 0 ~write:false);
  let o = Cache.access c (4 * 64 * 4) ~write:false in
  Alcotest.(check bool) "eviction happened" true (Cache.victim o >= 0);
  Alcotest.(check bool) "most recent survives PLRU" true (Cache.contains c 0)

(* The access loop allocates nothing on hits or misses, including the
   PLRU victim descent, the generic-associativity way search (16 ways)
   and the random policy's draw.  The trace spans 8x the capacity so
   most accesses miss; a first pass fills the first-touch set so the
   measured pass sees no table growth. *)
let test_access_allocation_gate () =
  let rng = Rng.create ~seed:4L in
  let addrs = Array.init 50_000 (fun _ -> 64 * Rng.int rng ~bound:2048) in
  List.iter
    (fun (assoc, policy) ->
      let c = make ~size:(kb 16) ~assoc ~block:64 ~policy () in
      let pass () =
        for i = 0 to Array.length addrs - 1 do
          ignore (Cache.access c addrs.(i) ~write:(i land 7 = 0))
        done
      in
      pass ();
      let w0 = Gc.minor_words () in
      pass ();
      let words = Gc.minor_words () -. w0 in
      if words > 0.0 then
        Alcotest.failf "%d-way %s: %.0f minor words over %d accesses" assoc
          (Replacement.name policy) words (Array.length addrs))
    [ (4, Replacement.Plru); (16, Replacement.Lru); (8, Replacement.Random 3) ]

let test_random_policy_reproducible () =
  let run () =
    let c = make ~size:(4 * 64) ~assoc:4 ~block:64 ~policy:(Replacement.Random 7) () in
    let rng = Rng.create ~seed:1L in
    let trace = Array.init 2000 (fun _ -> 64 * Rng.int rng ~bound:64) in
    Array.iter (fun a -> ignore (Cache.access c a ~write:false)) trace;
    (Cache.stats c).Stats.misses
  in
  Alcotest.(check int) "same seed, same misses" (run ()) (run ())

let test_valid_blocks () =
  let c = make ~size:(4 * 64) ~assoc:4 ~block:64 () in
  ignore (Cache.access c 0 ~write:false);
  ignore (Cache.access c 256 ~write:false);
  let blocks = List.sort compare (Cache.valid_blocks c) in
  Alcotest.(check (list int)) "resident blocks" [ 0; 4 ] blocks

let test_cache_validation () =
  let expect f =
    Alcotest.(check bool) "rejected" true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  expect (fun () -> make ~size:1000 ());
  expect (fun () -> make ~block:20 ());
  expect (fun () -> make ~size:64 ~assoc:2 ~block:64 ());
  expect (fun () -> make ~assoc:3 ~policy:Replacement.Plru ())

(* --- hierarchy ------------------------------------------------------------ *)

let test_hierarchy_flow () =
  let l1 = make ~size:(kb 1) ~assoc:2 () in
  let l2 = make ~size:(kb 8) ~assoc:4 () in
  let h = Hierarchy.create ~l1 ~l2 in
  let o1 = Hierarchy.access h 0 ~write:false in
  Alcotest.(check bool) "cold: miss everywhere" true
    ((not o1.Hierarchy.l1_hit) && (not o1.Hierarchy.l2_hit) && o1.Hierarchy.memory_access);
  let o2 = Hierarchy.access h 0 ~write:false in
  Alcotest.(check bool) "L1 hit on repeat" true o2.Hierarchy.l1_hit;
  Alcotest.(check int) "one memory read" 1 (Hierarchy.memory_reads h)

let test_hierarchy_l2_catches_l1_evictions () =
  let l1 = make ~size:(2 * 64) ~assoc:2 () in
  let l2 = make ~size:(kb 8) ~assoc:4 () in
  let h = Hierarchy.create ~l1 ~l2 in
  (* touch 3 conflicting blocks: third evicts first from L1, but L2 keeps it *)
  ignore (Hierarchy.access h 0 ~write:false);
  ignore (Hierarchy.access h 64 ~write:false);
  ignore (Hierarchy.access h 128 ~write:false);
  let o = Hierarchy.access h 0 ~write:false in
  Alcotest.(check bool) "L1 miss, L2 hit" true ((not o.Hierarchy.l1_hit) && o.Hierarchy.l2_hit)

let test_hierarchy_writeback_to_memory () =
  let l1 = make ~size:(64) ~assoc:1 () in
  let l2 = make ~size:(128) ~assoc:1 ~block:64 () in
  let h = Hierarchy.create ~l1 ~l2 in
  (* dirty a block, push it out of both levels *)
  ignore (Hierarchy.access h 0 ~write:true);
  ignore (Hierarchy.access h 64 ~write:true);
  ignore (Hierarchy.access h 128 ~write:true);
  ignore (Hierarchy.access h 256 ~write:true);
  Alcotest.(check bool) "memory writes happened" true (Hierarchy.memory_writes h > 0)

let test_hierarchy_validation () =
  let l1 = make ~size:(kb 4) ~block:64 () in
  let l2_small = make ~size:(kb 1) ~block:64 () in
  Alcotest.(check bool) "L2 smaller than L1 rejected" true
    (try
       ignore (Hierarchy.create ~l1 ~l2:l2_small);
       false
     with Invalid_argument _ -> true);
  let l2_other_block = make ~size:(kb 8) ~block:32 () in
  Alcotest.(check bool) "block mismatch rejected" true
    (try
       ignore (Hierarchy.create ~l1 ~l2:l2_other_block);
       false
     with Invalid_argument _ -> true)

let test_miss_rates () =
  let l1 = make ~size:(kb 1) ~assoc:2 () in
  let l2 = make ~size:(kb 8) ~assoc:4 () in
  let h = Hierarchy.create ~l1 ~l2 in
  let rng = Rng.create ~seed:4L in
  for _ = 1 to 20_000 do
    ignore (Hierarchy.access h (64 * Rng.int rng ~bound:256) ~write:false)
  done;
  let m1 = Hierarchy.l1_miss_rate h in
  let m2g = Hierarchy.l2_global_miss_rate h in
  Alcotest.(check bool) "0 < m1 < 1" true (m1 > 0.0 && m1 < 1.0);
  Alcotest.(check bool) "global <= local picture consistent" true (m2g <= m1)

(* A reference LRU model (association list) against the real cache. *)
let prop_lru_against_reference =
  QCheck.Test.make ~count:30 ~name:"set-associative LRU vs reference model"
    Generators.trace_seed_arb
    (fun seed ->
      let assoc = 4 and sets = 8 and block = 64 in
      let c =
        Cache.create ~size_bytes:(assoc * sets * block) ~assoc ~block_bytes:block
          ~policy:Replacement.Lru ()
      in
      (* reference: per-set list of blocks, most recent first *)
      let reference = Array.make sets [] in
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let ok = ref true in
      for _ = 1 to 2000 do
        let block_no = Rng.int rng ~bound:128 in
        let addr = block_no * block in
        let set = block_no land (sets - 1) in
        let expected_hit = List.mem block_no reference.(set) in
        let lst = List.filter (fun b -> b <> block_no) reference.(set) in
        let lst = block_no :: lst in
        reference.(set) <-
          (if List.length lst > assoc then List.filteri (fun i _ -> i < assoc) lst else lst);
        let o = Cache.access c addr ~write:false in
        if Cache.hit o <> expected_hit then ok := false
      done;
      !ok)

(* Random valid geometries (shared generator): the counters must stay
   internally consistent whatever the shape. *)
let prop_stats_bookkeeping =
  QCheck.Test.make ~count:30 ~name:"stats bookkeeping on random geometries"
    QCheck.(pair Generators.geometry_arb Generators.trace_seed_arb)
    (fun ((size, assoc, block), seed) ->
      let c =
        Cache.create ~size_bytes:size ~assoc ~block_bytes:block
          ~policy:Replacement.Lru ()
      in
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let n = 2_000 in
      for _ = 1 to n do
        ignore
          (Cache.access c
             (block * Rng.int rng ~bound:4096)
             ~write:(Rng.int rng ~bound:4 = 0))
      done;
      let st = Cache.stats c in
      st.Stats.accesses = n
      && st.Stats.hits + st.Stats.misses = n
      && st.Stats.read_accesses + st.Stats.write_accesses = n
      && st.Stats.cold_misses <= st.Stats.misses
      && st.Stats.evictions <= st.Stats.misses)

let suite =
  [
    Alcotest.test_case "address arithmetic" `Quick test_address;
    Alcotest.test_case "cold miss then hit" `Quick test_cold_then_hit;
    Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "FIFO vs LRU" `Quick test_fifo_vs_lru;
    Alcotest.test_case "cyclic LRU thrash" `Quick test_cyclic_lru_thrash;
    Alcotest.test_case "cyclic fits" `Quick test_cyclic_fits;
    Alcotest.test_case "dirty write-back" `Quick test_writeback_dirty;
    Alcotest.test_case "clean eviction" `Quick test_clean_eviction;
    Alcotest.test_case "PLRU basics" `Quick test_plru_basic;
    Alcotest.test_case "alloc gate: 4-way PLRU and 16-way LRU access allocates 0 words"
      `Quick test_access_allocation_gate;
    Alcotest.test_case "random policy reproducible" `Quick test_random_policy_reproducible;
    Alcotest.test_case "valid blocks" `Quick test_valid_blocks;
    Alcotest.test_case "cache validation" `Quick test_cache_validation;
    Alcotest.test_case "hierarchy flow" `Quick test_hierarchy_flow;
    Alcotest.test_case "L2 catches L1 evictions" `Quick test_hierarchy_l2_catches_l1_evictions;
    Alcotest.test_case "write-back to memory" `Quick test_hierarchy_writeback_to_memory;
    Alcotest.test_case "hierarchy validation" `Quick test_hierarchy_validation;
    Alcotest.test_case "miss rates" `Quick test_miss_rates;
  ]
  @ List.map Generators.to_alcotest [ prop_lru_against_reference; prop_stats_bookkeeping ]
