(* Tests for the architectural cache simulator. *)

module Cache = Nmcache_cachesim.Cache
module Replacement = Nmcache_cachesim.Replacement
module Stats = Nmcache_cachesim.Stats
module Intmap = Nmcache_cachesim.Intmap
module Rng = Nmcache_numerics.Rng

let kb n = n * 1024

let make ?(size = kb 1) ?(assoc = 2) ?(block = 64) ?(policy = Replacement.Lru) () =
  Cache.create ~size_bytes:size ~assoc ~block_bytes:block ~policy ()

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
    [
      (4, Replacement.Plru);
      (16, Replacement.Lru);
      (8, Replacement.Random 3);
      (* the L2 shape: 8-way LRU, the masked-minimum victim choice *)
      (8, Replacement.Lru);
    ]

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

(* --- L1/L2 pair ------------------------------------------------------------ *)

let test_hierarchy_flow () =
  let l1 = make ~size:(kb 1) ~assoc:2 () in
  let l2 = make ~size:(kb 8) ~assoc:4 () in
  let p = Cache.pair ~l1 ~l2 in
  Alcotest.(check int) "cold: served by memory" 2 (Cache.step p 0 ~write:false);
  Alcotest.(check int) "L1 hit on repeat" 0 (Cache.step p 0 ~write:false);
  Alcotest.(check int) "one memory read" 1 p.Cache.memory_reads

let test_hierarchy_l2_catches_l1_evictions () =
  let l1 = make ~size:(2 * 64) ~assoc:2 () in
  let l2 = make ~size:(kb 8) ~assoc:4 () in
  let p = Cache.pair ~l1 ~l2 in
  (* touch 3 conflicting blocks: third evicts first from L1, but L2 keeps it *)
  ignore (Cache.step p 0 ~write:false);
  ignore (Cache.step p 64 ~write:false);
  ignore (Cache.step p 128 ~write:false);
  Alcotest.(check int) "L1 miss, L2 hit" 1 (Cache.step p 0 ~write:false)

let test_hierarchy_writeback_to_memory () =
  let l1 = make ~size:(64) ~assoc:1 () in
  let l2 = make ~size:(128) ~assoc:1 ~block:64 () in
  let p = Cache.pair ~l1 ~l2 in
  (* dirty a block, push it out of both levels *)
  ignore (Cache.step p 0 ~write:true);
  ignore (Cache.step p 64 ~write:true);
  ignore (Cache.step p 128 ~write:true);
  ignore (Cache.step p 256 ~write:true);
  Alcotest.(check bool) "memory writes happened" true (p.Cache.memory_writes > 0)

let test_hierarchy_validation () =
  let l1 = make ~size:(kb 4) ~block:64 () in
  let refused why l2 =
    match Cache.pair ~l1 ~l2 with
    | _ -> Alcotest.failf "%s: accepted" why
    | exception Invalid_argument msg -> Alcotest.(check string) why ("Cache.pair: " ^ why) msg
  in
  refused "L2 smaller than L1" (make ~size:(kb 1) ~block:64 ());
  refused "L1/L2 block sizes differ" (make ~size:(kb 8) ~block:32 ());
  (* an L2 as large as its L1 is a pair *)
  ignore (Cache.pair ~l1 ~l2:(make ~size:(kb 4) ~block:64 ()))

let test_miss_rates () =
  let l1 = make ~size:(kb 1) ~assoc:2 () in
  let l2 = make ~size:(kb 8) ~assoc:4 () in
  let p = Cache.pair ~l1 ~l2 in
  Alcotest.(check (float 0.0)) "no access: global rate 0" 0.0 (Cache.l2_global_miss_rate p);
  let rng = Rng.create ~seed:4L in
  for _ = 1 to 20_000 do
    ignore (Cache.step p (64 * Rng.int rng ~bound:256) ~write:false)
  done;
  let m1 = Stats.miss_rate (Cache.stats l1) in
  let m2g = Cache.l2_global_miss_rate p in
  Alcotest.(check (float 0.0)) "global = L2 misses / L1 accesses"
    (float_of_int (Cache.stats l2).Stats.misses /. 20_000.0)
    m2g;
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

(* --- the kernel against reference models ---------------------------------

   One reference set keeps, per way, the block number (-1 when invalid)
   and its dirty bit.  [order] lists valid ways, most recent first under
   LRU and newest install first under FIFO; [tree] holds PLRU's internal
   nodes, [true] meaning the victim lies in the right subtree; Random
   draws from its own [Rng] with the cache's seed, only when the set has
   no invalid way.  Every counter is kept by hand, and cold misses by a
   Hashtbl of every block ever missed on. *)

type ref_set = {
  blocks : int array;
  dirt : bool array;
  mutable order : int list;
  tree : bool array;
}

type ref_cache = {
  r_assoc : int;
  r_policy : Replacement.t;
  r_sets : ref_set array;
  r_rng : Rng.t;
  r_seen : (int, unit) Hashtbl.t;
  r_stats : Stats.t;
}

let ref_create ~sets ~assoc policy =
  let seed = match policy with Replacement.Random s -> s | _ -> 0 in
  {
    r_assoc = assoc;
    r_policy = policy;
    r_sets =
      Array.init sets (fun _ ->
          {
            blocks = Array.make assoc (-1);
            dirt = Array.make assoc false;
            order = [];
            tree = Array.make (max 0 (assoc - 1)) false;
          });
    r_rng = Rng.create ~seed:(Int64.of_int seed);
    r_seen = Hashtbl.create 64;
    r_stats = Stats.create ();
  }

(* point every tree node on the way's path at the other subtree *)
let ref_plru_touch r s w =
  let node = ref (w + r.r_assoc - 1) in
  while !node > 0 do
    let parent = (!node - 1) / 2 in
    s.tree.(parent) <- !node = (2 * parent) + 1;
    node := parent
  done

let ref_plru_victim r s =
  let node = ref 0 in
  while !node < r.r_assoc - 1 do
    node := (2 * !node) + if s.tree.(!node) then 2 else 1
  done;
  !node - (r.r_assoc - 1)

let rec last = function [ x ] -> x | _ :: tl -> last tl | [] -> assert false

let ref_victim r s =
  let rec first_invalid w =
    if w = r.r_assoc then None
    else if s.blocks.(w) = -1 then Some w
    else first_invalid (w + 1)
  in
  match first_invalid 0 with
  | Some w -> w
  | None -> (
    match r.r_policy with
    | Replacement.Lru | Replacement.Fifo -> last s.order
    | Replacement.Plru -> ref_plru_victim r s
    | Replacement.Random _ -> Rng.int r.r_rng ~bound:r.r_assoc)

(* (hit, victim block or -1, victim dirty) *)
let ref_access r block ~write =
  let st = r.r_stats in
  let s = r.r_sets.(block mod Array.length r.r_sets) in
  let to_front w = s.order <- w :: List.filter (fun x -> x <> w) s.order in
  st.Stats.accesses <- st.Stats.accesses + 1;
  if write then st.Stats.write_accesses <- st.Stats.write_accesses + 1
  else st.Stats.read_accesses <- st.Stats.read_accesses + 1;
  let rec find w =
    if w = r.r_assoc then None else if s.blocks.(w) = block then Some w else find (w + 1)
  in
  match find 0 with
  | Some w ->
    st.Stats.hits <- st.Stats.hits + 1;
    if write then s.dirt.(w) <- true;
    (match r.r_policy with
    | Replacement.Lru -> to_front w
    | Replacement.Plru -> ref_plru_touch r s w
    | Replacement.Fifo | Replacement.Random _ -> ());
    (true, -1, false)
  | None ->
    st.Stats.misses <- st.Stats.misses + 1;
    if not (Hashtbl.mem r.r_seen block) then begin
      Hashtbl.add r.r_seen block ();
      st.Stats.cold_misses <- st.Stats.cold_misses + 1
    end;
    let w = ref_victim r s in
    let old = s.blocks.(w) and old_dirty = s.dirt.(w) in
    if old <> -1 then begin
      st.Stats.evictions <- st.Stats.evictions + 1;
      if old_dirty then st.Stats.writebacks <- st.Stats.writebacks + 1
    end;
    s.blocks.(w) <- block;
    s.dirt.(w) <- write;
    (match r.r_policy with
    | Replacement.Lru | Replacement.Fifo -> to_front w
    | Replacement.Plru -> ref_plru_touch r s w
    | Replacement.Random _ -> ());
    (false, old, old <> -1 && old_dirty)

let stats_fields (s : Stats.t) =
  [
    ("accesses", s.Stats.accesses);
    ("hits", s.Stats.hits);
    ("misses", s.Stats.misses);
    ("read_accesses", s.Stats.read_accesses);
    ("write_accesses", s.Stats.write_accesses);
    ("evictions", s.Stats.evictions);
    ("writebacks", s.Stats.writebacks);
    ("cold_misses", s.Stats.cold_misses);
  ]

(* Block numbers for one case.  Clustered traces draw from a range a few
   times the capacity; sparse ones draw from a pool of blocks spread over
   [0, 2^40), one per first-touch page and mostly above 2^32, with a run
   of neighbours so some misses share a page. *)
let case_blocks rng ~clustered ~capacity n =
  if clustered then Array.init n (fun _ -> Rng.int rng ~bound:(4 * capacity))
  else begin
    let pool =
      Array.init (3 * capacity) (fun i ->
          if i < 8 then (1 lsl 33) + i else Rng.int rng ~bound:(1 lsl 40))
    in
    Array.init n (fun _ -> pool.(Rng.int rng ~bound:(Array.length pool)))
  end

let prop_kernel_against_references =
  QCheck.Test.make ~count:10 ~name:"cache kernel vs reference models (4 policies x 1-16 ways)"
    Generators.trace_seed_arb
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let sets = 4 and block = 64 and n = 1500 in
      List.iter
        (fun assoc ->
          List.iter
            (fun policy ->
              List.iter
                (fun clustered ->
                  let c =
                    Cache.create ~size_bytes:(assoc * sets * block) ~assoc ~block_bytes:block
                      ~policy ()
                  in
                  let r = ref_create ~sets ~assoc policy in
                  let case =
                    Printf.sprintf "%d-way %s %s" assoc (Replacement.name policy)
                      (if clustered then "clustered" else "sparse")
                  in
                  let compare_stats at =
                    List.iter2
                      (fun (name, want) (_, got) ->
                        if want <> got then
                          QCheck.Test.fail_reportf "%s, %s: %s %d, reference %d" case at
                            name got want)
                      (stats_fields r.r_stats)
                      (stats_fields (Cache.stats c))
                  in
                  let blocks = case_blocks rng ~clustered ~capacity:(assoc * sets) n in
                  Array.iteri
                    (fun i b ->
                      (* statistics restart halfway; first touches do not *)
                      if i = n / 2 then begin
                        compare_stats "before reset";
                        Cache.reset_stats c;
                        Stats.reset r.r_stats
                      end;
                      let write = Rng.int rng ~bound:3 = 0 in
                      let o = Cache.access c (b * block) ~write in
                      let hit, victim, dirty = ref_access r b ~write in
                      if
                        Cache.hit o <> hit
                        || Cache.victim o <> victim
                        || Cache.victim_dirty o <> dirty
                      then
                        QCheck.Test.fail_reportf
                          "%s, access %d (block %d): (hit %b, victim %d, dirty %b), reference \
                           (%b, %d, %b)"
                          case i b (Cache.hit o) (Cache.victim o) (Cache.victim_dirty o) hit
                          victim dirty)
                    blocks;
                  compare_stats "at the end")
                [ true; false ])
            [ Replacement.Lru; Replacement.Fifo; Replacement.Plru; Replacement.Random (seed land 0xffff) ])
        [ 1; 2; 4; 8; 16 ];
      true)

(* --- chunk kernels ---------------------------------------------------- *)

(* The two-level step as it was written before it moved into [Cache]:
   per-access [Cache.access] calls, with a dirty L1 victim written into
   L2 at its block number times the block size. *)
type ref_pair = {
  p_l1 : Cache.t;
  p_l2 : Cache.t;
  mutable p_reads : int;
  mutable p_writes : int;
}

let ref_pair_access p addr ~write =
  let o1 = Cache.access p.p_l1 addr ~write in
  if not (Cache.hit o1) then begin
    if Cache.victim_dirty o1 then begin
      let o_wb =
        Cache.access p.p_l2 (Cache.victim o1 * Cache.block_bytes p.p_l1) ~write:true
      in
      if Cache.victim_dirty o_wb then p.p_writes <- p.p_writes + 1;
      if not (Cache.hit o_wb) then p.p_reads <- p.p_reads + 1
    end;
    let o2 = Cache.access p.p_l2 addr ~write:false in
    if Cache.victim_dirty o2 then p.p_writes <- p.p_writes + 1;
    if not (Cache.hit o2) then p.p_reads <- p.p_reads + 1
  end

(* Packed entries ([addr lsl 1 lor write]): 70 % from a hot range twice
   the L1's capacity, the rest from eight times the L2's, at unaligned
   addresses, a third of them writes, so both levels hit, miss and evict
   dirty blocks. *)
let kernel_trace rng ~l1_blocks ~l2_blocks n =
  Array.init n (fun _ ->
      let range = if Rng.int rng ~bound:10 < 7 then 2 * l1_blocks else 8 * l2_blocks in
      let addr = (64 * Rng.int rng ~bound:range) + Rng.int rng ~bound:64 in
      (addr lsl 1) lor Bool.to_int (Rng.int rng ~bound:3 = 0))

(* sorted cut points in [0, n], the ends included: the pieces a chunked
   replay hands the kernels, one of them empty (the first cut twice) *)
let kernel_cuts rng n =
  let cuts = List.init (1 + Rng.int rng ~bound:6) (fun _ -> Rng.int rng ~bound:(n + 1)) in
  List.sort compare (0 :: n :: List.hd cuts :: cuts)

let prop_chunk_kernels =
  QCheck.Test.make ~count:10
    ~name:"chunk kernels equal per-access simulation (4 policies x 1-16 ways, any cuts)"
    Generators.trace_seed_arb
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let policies =
        [| Replacement.Lru; Replacement.Fifo; Replacement.Plru; Replacement.Random (seed land 0xffff) |]
      and ways = [| 1; 2; 4; 8; 16 |] and n = 3000 in
      let cache assoc sets policy =
        Cache.create ~size_bytes:(assoc * sets * 64) ~assoc ~block_bytes:64 ~policy ()
      in
      let same case what (want : Cache.t) (got : Cache.t) =
        List.iter2
          (fun (name, w) (_, g) ->
            if w <> g then
              QCheck.Test.fail_reportf "%s, %s: %s %d, per-access %d" case what name g w)
          (stats_fields (Cache.stats want))
          (stats_fields (Cache.stats got))
      in
      Array.iter
        (fun assoc ->
          Array.iter
            (fun policy ->
              let l2_assoc = ways.(Rng.int rng ~bound:(Array.length ways)) in
              let l2_policy = policies.(Rng.int rng ~bound:(Array.length policies)) in
              let case =
                Printf.sprintf "L1 %d-way %s, L2 %d-way %s" assoc (Replacement.name policy)
                  l2_assoc (Replacement.name l2_policy)
              in
              let trace = kernel_trace rng ~l1_blocks:(4 * assoc) ~l2_blocks:(64 * l2_assoc) n in
              let cuts = kernel_cuts rng n in
              (* one cache *)
              let c_ref = cache assoc 4 policy and c = cache assoc 4 policy in
              (* the pair, against the step written out above *)
              let r =
                { p_l1 = cache assoc 4 policy; p_l2 = cache l2_assoc 64 l2_policy;
                  p_reads = 0; p_writes = 0 }
              in
              let p = Cache.pair ~l1:(cache assoc 4 policy) ~l2:(cache l2_assoc 64 l2_policy) in
              let compare_at at =
                same case ("one cache, " ^ at) c_ref c;
                same case ("L1, " ^ at) r.p_l1 p.Cache.l1;
                same case ("L2, " ^ at) r.p_l2 p.Cache.l2;
                if (r.p_reads, r.p_writes) <> (p.Cache.memory_reads, p.Cache.memory_writes) then
                  QCheck.Test.fail_reportf "%s, %s: memory reads/writes %d/%d, per-access %d/%d"
                    case at p.Cache.memory_reads p.Cache.memory_writes r.p_reads r.p_writes
              in
              let rec pieces = function
                | a :: (b :: _ as rest) ->
                  for i = a to b - 1 do
                    let e = trace.(i) in
                    let addr = e lsr 1 and write = e land 1 = 1 in
                    ignore (Cache.access c_ref addr ~write);
                    ref_pair_access r addr ~write
                  done;
                  Cache.run c trace a (b - a);
                  Cache.run_pair p trace a (b - a);
                  compare_at (Printf.sprintf "after [%d, %d)" a b);
                  pieces rest
                | _ -> ()
              in
              pieces cuts;
              (* the trace must have exercised dirty victims at both levels *)
              if (Cache.stats r.p_l1).Stats.writebacks = 0 || r.p_writes = 0 then
                QCheck.Test.fail_reportf "%s: no dirty victim at L1 or L2" case)
            policies)
        ways;
      true)

(* The miss kernel is [Cache.access] plus a filter: the same statistics
   after every piece, and the entries that missed, in order. *)
let prop_miss_kernel =
  QCheck.Test.make ~count:10
    ~name:"miss kernel equals Cache.access plus a filter (4 policies x 1-16 ways, any cuts)"
    Generators.trace_seed_arb
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let policies =
        [| Replacement.Lru; Replacement.Fifo; Replacement.Plru; Replacement.Random (seed land 0xffff) |]
      and n = 3000 in
      let into = Array.make n (-1) in
      Array.iter
        (fun assoc ->
          Array.iter
            (fun policy ->
              let cache () =
                Cache.create ~size_bytes:(assoc * 4 * 64) ~assoc ~block_bytes:64 ~policy ()
              in
              let case = Printf.sprintf "%d-way %s" assoc (Replacement.name policy) in
              let trace = kernel_trace rng ~l1_blocks:(4 * assoc) ~l2_blocks:(16 * assoc) n in
              let by_access = cache () and by_kernel = cache () in
              let rec pieces = function
                | a :: (b :: _ as rest) ->
                  let want = ref [] in
                  for i = a to b - 1 do
                    let e = trace.(i) in
                    if not (Cache.hit (Cache.access by_access (e lsr 1) ~write:(e land 1 = 1)))
                    then want := e :: !want
                  done;
                  let m = Cache.run_misses by_kernel trace a (b - a) ~into in
                  if Array.to_list (Array.sub into 0 m) <> List.rev !want then
                    QCheck.Test.fail_reportf "%s, [%d, %d): %d misses copied, %d by access"
                      case a b m (List.length !want);
                  if stats_fields (Cache.stats by_access) <> stats_fields (Cache.stats by_kernel)
                  then QCheck.Test.fail_reportf "%s, [%d, %d): statistics differ" case a b;
                  pieces rest
                | _ -> ()
              in
              pieces (kernel_cuts rng n))
            policies)
        [| 1; 2; 4; 8; 16 |];
      (match Cache.run_misses (make ~size:1024 ~assoc:2 ~block:64 ()) into 0 2 ~into:[| 0 |] with
       | _ -> QCheck.Test.fail_reportf "a buffer shorter than the range was accepted"
       | exception Invalid_argument _ -> ());
      true)

(* A fully sparse trace puts every block on its own first-touch page,
   the bit pages' worst case.  It must cost at most 4x the bytes per
   distinct block of an Intmap holding each block (created as the
   per-block first-touch set was, at 4096 slots), measured just below
   the Intmap's growth points, where its bytes per block are least.
   A dense trace costs a bit per block and its share of a page. *)
let test_first_touch_bytes () =
  List.iter
    (fun n ->
      let c = make ~size:64 ~assoc:1 ~block:64 () in
      let per_block = Intmap.create ~initial_capacity:4096 () in
      for k = 0 to n - 1 do
        (* pages are 256 blocks; a stride of 4099 pages, above 2^32 *)
        let b = (1 lsl 33) + (k * 4099 * 256) + (k land 255) in
        ignore (Cache.access c (b * 64) ~write:false);
        ignore (Intmap.add_if_absent per_block b)
      done;
      Alcotest.(check int) "every block cold" n (Cache.stats c).Stats.cold_misses;
      let bytes words = float_of_int (words * (Sys.word_size / 8)) /. float_of_int n in
      let ours = bytes (Cache.first_touch_words c)
      and theirs = bytes (Obj.reachable_words (Obj.repr per_block)) in
      if ours > 4.0 *. theirs then
        Alcotest.failf "sparse, %d blocks: %.1f bytes per block, Intmap %.1f (bound: 4x)" n
          ours theirs)
    [ 1_000; 3_071; 12_287 ];
  let n = 100_000 in
  let c = make ~size:64 ~assoc:1 ~block:64 () in
  for b = 0 to n - 1 do
    ignore (Cache.access c ((1 lsl 40) + (b * 64)) ~write:false)
  done;
  Alcotest.(check int) "dense: every block cold" n (Cache.stats c).Stats.cold_misses;
  let bytes = float_of_int (Cache.first_touch_words c * (Sys.word_size / 8)) /. float_of_int n in
  if bytes > 1.0 then Alcotest.failf "dense: %.2f bytes per block (bound: 1)" bytes

let suite =
  [
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
    Alcotest.test_case "first touches: sparse <= 4x an Intmap's bytes per block, dense <= 1"
      `Quick test_first_touch_bytes;
  ]
  @ List.map Generators.to_alcotest
      [
        prop_lru_against_reference;
        prop_stats_bookkeeping;
        prop_kernel_against_references;
        prop_chunk_kernels;
        prop_miss_kernel;
      ]
