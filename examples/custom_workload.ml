(* Scenario: evaluating the memory system against a workload the
   registry doesn't ship — a video-server-like stream mix (large
   sequential reads + a hot metadata index).  Shows how to write a
   generator from the building blocks, measure its miss behaviour, and
   feed the rates into the energy model.

   Run with: dune exec examples/custom_workload.exe *)

module Rng = Nmcache_numerics.Rng
module Gen = Nmcache_workload.Gen
module Regions = Nmcache_workload.Regions
module Cache = Nmcache_cachesim.Cache
module Replacement = Nmcache_cachesim.Replacement
module Stats = Nmcache_cachesim.Stats
module System = Nmcache_energy.System
module Component = Nmcache_geometry.Component
module Units = Nmcache_physics.Units

let kb n = n * 1024
let mb n = n * 1024 * 1024

(* a seeded custom generator: 70% streaming over a 64MB media window,
   25% hot index, 5% connection table with Zipf popularity *)
let video_server ~seed =
  let rng = Rng.create ~seed in
  let media = Gen.make ~name:"media" (Regions.stream ~base:0x1000_0000 ~bytes:(mb 64) ~stride:8 ()) in
  let index =
    Gen.make ~name:"index"
      (Regions.locality_walker ~rng:(Rng.split rng) ~base:0x8000_0000 ~bytes:(kb 8)
         ~p_continue:0.8 ())
  in
  let connections =
    Gen.make ~name:"connections"
      (Regions.zipf_blocks ~rng:(Rng.split rng) ~base:0xc000_0000 ~bytes:(mb 8) ~block:64
         ~s:0.9 ~run:4 ())
  in
  Gen.mix ~name:"video-server" ~rng:(Rng.split rng)
    [ (0.70, media); (0.25, index); (0.05, connections) ]

let () =
  let ctx = Core.Context.default () in
  let gen = video_server ~seed:7L in

  (* measure miss rates with an explicit L1/L2 pair *)
  let l1 =
    Cache.create ~size_bytes:(kb 16) ~assoc:4 ~block_bytes:64 ~policy:Replacement.Lru ()
  in
  let l2 =
    Cache.create ~size_bytes:(mb 1) ~assoc:8 ~block_bytes:64 ~policy:Replacement.Lru ()
  in
  let p = Cache.pair ~l1 ~l2 in
  Gen.iter ~stage:"simulate" gen 2_000_000 (fun addr write -> ignore (Cache.step p addr ~write));
  let m1 = Stats.miss_rate (Cache.stats l1) in
  let m2 = Stats.miss_rate (Cache.stats l2) in
  Printf.printf "video-server: L1 miss %.2f%%, L2 local miss %.2f%%\n" (100.0 *. m1)
    (100.0 *. m2);

  (* plug the measured rates into the system energy model *)
  let sys =
    System.make
      ~l1:(Core.Context.fitted ctx (Core.Context.l1_config ctx ()))
      ~l2:(Core.Context.fitted ctx (Core.Context.l2_config ctx ()))
      ~mem:ctx.Core.Context.mem ~m1 ~m2
  in
  let conservative = Component.knob ~vth:0.45 ~tox:(Units.angstrom 14.0) in
  let fast = Component.knob ~vth:0.22 ~tox:(Units.angstrom 11.0) in
  let pick = function
    | System.L1_cell | System.L2_cell -> conservative
    | System.L1_periph | System.L2_periph -> fast
  in
  let split = System.evaluate sys pick in
  let flat = System.evaluate_uniform sys (Component.knob ~vth:0.3 ~tox:(Units.angstrom 12.0)) in
  Printf.printf "\n%-28s AMAT %7.0f ps   energy %8.1f pJ/access\n"
    "uniform reference pair:" (Units.to_ps flat.System.amat)
    (Units.to_pj flat.System.energy_per_access);
  Printf.printf "%-28s AMAT %7.0f ps   energy %8.1f pJ/access\n"
    "conservative cells + fast periphery:"
    (Units.to_ps split.System.amat)
    (Units.to_pj split.System.energy_per_access)
