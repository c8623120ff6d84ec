(* A tour of the extension features on one memory system: a phased
   workload runs through a prefetching hierarchy, the resulting rates
   feed the energy model, and the design is hardened with variation
   margins and a drowsy standby mode.

   Run with: dune exec examples/memory_system_tour.exe *)

module Units = Nmcache_physics.Units
module Tech = Nmcache_device.Tech
module Knob_state = Nmcache_device.Knob_state
module Mosfet = Nmcache_device.Mosfet
module Variation = Nmcache_device.Variation
module Sram_cell = Nmcache_circuit.Sram_cell
module Cache = Nmcache_cachesim.Cache
module Prefetch = Nmcache_cachesim.Prefetch
module Replacement = Nmcache_cachesim.Replacement
module Trace = Nmcache_cachesim.Trace
module Gen = Nmcache_workload.Gen
module Access = Nmcache_workload.Access
module Registry = Nmcache_workload.Registry
module Component = Nmcache_geometry.Component
module Fitted_cache = Nmcache_fit.Fitted_cache
module Drowsy = Nmcache_energy.Drowsy

let kb n = n * 1024
let mb n = n * 1024 * 1024

let () =
  let ctx = Core.Context.default () in

  (* 1. a phased workload (gcc/mcf/art phases) and its trace profile *)
  let gen = Registry.build ~seed:11L "spec2000-phased" in
  let trace =
    Trace.record
      ~next:(fun () ->
        let a = Gen.next gen in
        { Trace.addr = a.Access.addr; write = a.Access.write })
      ~n:400_000
  in
  Format.printf "phased trace: %a@.@." Trace.pp_stats (Trace.analyze trace);

  (* 2. run it through a prefetching L1/L2 and compare degrees *)
  let run degree =
    let l1 =
      Cache.create ~size_bytes:(kb 16) ~assoc:4 ~block_bytes:64 ~policy:Replacement.Lru ()
    in
    let l2 =
      Cache.create ~size_bytes:(mb 1) ~assoc:8 ~block_bytes:64 ~policy:Replacement.Lru ()
    in
    let p = Prefetch.create ~degree ~l1 ~l2 () in
    let demand_miss = ref 0 and demand = ref 0 in
    Trace.iter trace (fun e ->
        let o = Prefetch.access p e.Trace.addr ~write:e.Trace.write in
        if not (Prefetch.l1_hit o) then begin
          incr demand;
          if not (Prefetch.l2_hit o) then incr demand_miss
        end);
    ( float_of_int !demand_miss /. float_of_int (max 1 !demand),
      Prefetch.accuracy p )
  in
  List.iter
    (fun degree ->
      let m2, acc = run degree in
      Printf.printf "prefetch degree %d: L2 demand miss %.1f%%  accuracy %.0f%%\n" degree
        (100.0 *. m2) (100.0 *. acc))
    [ 0; 1; 2 ];
  print_newline ();

  (* 3. knob the L2 conservatively and check the variation margin *)
  let tech = ctx.Core.Context.tech in
  let l2_fit = Core.Context.fitted ctx (Core.Context.l2_config ctx ()) in
  let quiet = Component.knob ~vth:0.5 ~tox:(Units.angstrom 14.0) in
  let nominal = Fitted_cache.leak_of l2_fit Component.Array_sense quiet in
  let cell = Sram_cell.make (Knob_state.make tech ~vth:0.5 ~tox:(Units.angstrom 14.0)) in
  let sigma =
    Variation.sigma_vth tech ~w:cell.Sram_cell.pulldown.Mosfet.w ~tox:(Units.angstrom 14.0)
  in
  let inflate =
    Variation.mean_inflation ~sigma ~n_swing:tech.Tech.n_swing ~temp_k:tech.Tech.temp_k
  in
  Printf.printf "L2 array leakage at (0.50V, 14A): %.2f mW nominal, %.2f mW with \
                 variation (sigma %.0f mV)\n"
    (Units.to_mw nominal)
    (Units.to_mw (nominal *. inflate))
    (1e3 *. sigma);

  (* 4. add a drowsy standby on top *)
  let e =
    Drowsy.apply Drowsy.default_policy ~array_leak_w:(nominal *. inflate)
      ~periph_leak_w:(Units.mw 1.0) ~access_time:(Units.ps 900.0) ~awake_fraction:0.05
      ~drowsy_hit_rate:0.3
  in
  Printf.printf "with drowsy standby: %.2f mW (saving %.0f%%), access %.0f ps\n"
    (Units.to_mw e.Drowsy.leak_w)
    (100.0 *. e.Drowsy.leak_saving)
    (Units.to_ps e.Drowsy.access_time)
