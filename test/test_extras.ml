(* Tests for the second-wave substrates: prefetching and phased
   workloads. *)

module Prefetch = Nmcache_cachesim.Prefetch
module Cache = Nmcache_cachesim.Cache
module Replacement = Nmcache_cachesim.Replacement
module Stats = Nmcache_cachesim.Stats
module Gen = Nmcache_workload.Gen
module Phased = Nmcache_workload.Phased
module Registry = Nmcache_workload.Registry
module Rng = Nmcache_numerics.Rng

let kb n = n * 1024

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
      let p = Cache.pair ~l1:l1b ~l2:l2b in
      Array.iter (fun a -> ignore (Cache.step p a ~write:false)) trace;
      (Cache.stats l1a).Stats.misses = (Cache.stats l1b).Stats.misses
      && (Cache.stats l2a).Stats.misses = (Cache.stats l2b).Stats.misses)

(* [Prefetch.run] is [Prefetch.access] on each packed entry, demand
   counts included, at degrees 0-3 and with the demand counts reset
   between pieces. *)
let prop_prefetch_run_equals_access =
  QCheck.Test.make ~count:10 ~name:"Prefetch.run = Prefetch.access on each entry (any cuts)"
    Generators.trace_seed_arb
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let n = 3_000 in
      let trace =
        Array.init n (fun _ ->
            let addr = (64 * Rng.int rng ~bound:1024) + Rng.int rng ~bound:64 in
            (addr lsl 1) lor Bool.to_int (Rng.int rng ~bound:3 = 0))
      in
      let cuts =
        List.sort compare (0 :: n :: List.init (1 + Rng.int rng ~bound:5) (fun _ -> Rng.int rng ~bound:(n + 1)))
      in
      List.iter
        (fun degree ->
          let by_access =
            let l1, l2 = fresh_pair () in
            Prefetch.create ~degree ~l1 ~l2 ()
          and by_run =
            let l1, l2 = fresh_pair () in
            Prefetch.create ~degree ~l1 ~l2 ()
          in
          let view p =
            let h = Prefetch.hierarchy p in
            ( (Cache.stats h.Cache.l1, Cache.stats h.Cache.l2),
              (h.Cache.memory_reads, h.Cache.memory_writes),
              (Prefetch.prefetches p, Prefetch.useful_prefetches p),
              (Prefetch.demand_accesses p, Prefetch.demand_misses p) )
          in
          let demand = ref 0 and misses = ref 0 in
          let rec pieces = function
            | a :: (b :: _ as rest) ->
              for i = a to b - 1 do
                let e = trace.(i) in
                let o = Prefetch.access by_access (e lsr 1) ~write:(e land 1 = 1) in
                if not (Prefetch.l1_hit o) then begin
                  incr demand;
                  if not (Prefetch.l2_hit o) then incr misses
                end
              done;
              Prefetch.run by_run trace a (b - a);
              if view by_access <> view by_run
                 || (!demand, !misses) <> (Prefetch.demand_accesses by_run, Prefetch.demand_misses by_run)
              then QCheck.Test.fail_reportf "degree %d, [%d, %d): the two paths differ" degree a b;
              Prefetch.reset_demand by_access;
              Prefetch.reset_demand by_run;
              demand := 0;
              misses := 0;
              pieces rest
            | _ -> ()
          in
          pieces cuts)
        [ 0; 1; 2; 3 ];
      true)

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
    Alcotest.test_case "prefetch streams into L2" `Quick test_prefetch_streams_into_l2;
    Alcotest.test_case "prefetch improves stream hits" `Quick
      test_prefetch_improves_sequential_l2_hits;
    Alcotest.test_case "prefetch accuracy" `Quick test_prefetch_accuracy_on_stream;
    Alcotest.test_case "zero-degree prefetcher" `Quick test_prefetch_zero_degree_is_plain;
    Alcotest.test_case "phased cycles" `Quick test_phased_cycles;
    Alcotest.test_case "phased deterministic" `Quick test_phased_deterministic;
    Alcotest.test_case "phased validation" `Quick test_phased_validation;
  ]
  @ List.map Generators.to_alcotest
      [ prop_prefetch_degree0_equals_hierarchy; prop_prefetch_run_equals_access ]
