module Tech = Nmcache_device.Tech
module Config = Nmcache_geometry.Config
module Component = Nmcache_geometry.Component
module Cache_model = Nmcache_geometry.Cache_model
module Fitted_cache = Nmcache_fit.Fitted_cache
module Grid = Nmcache_opt.Grid
module Units = Nmcache_physics.Units

type t = {
  tech : Tech.t;
  l1_size : int;
  l1_assoc : int;
  l2_size : int;
  l2_assoc : int;
  block_bytes : int;
  l2_output_bits : int;
  workloads : string list;
  seed : int64;
  n_sim : int;
  grid : Grid.t;
  coarse_grid : Grid.t;
  mem : Nmcache_energy.Main_memory.t;
}

let kb n = n * 1024
let mb n = n * 1024 * 1024

let default () =
  let tech = Tech.bptm65 in
  {
    tech;
    l1_size = kb 16;
    l1_assoc = 4;
    l2_size = mb 1;
    l2_assoc = 8;
    block_bytes = 64;
    l2_output_bits = 128;
    workloads = Nmcache_workload.Registry.headline;
    seed = Nmcache_workload.Registry.default_seed;
    n_sim = 2_000_000;
    grid = Grid.make tech;
    coarse_grid = Grid.coarse tech;
    mem = Nmcache_energy.Main_memory.ddr2_like;
  }

let quick () =
  let tech = Tech.bptm65 in
  {
    (default ()) with
    n_sim = 400_000;
    grid = Grid.coarse tech;
    coarse_grid = Grid.coarse tech;
  }

(* Names the fitter and optimiser generation.  Change it with any
   numerical change that can move a fitted model or an optimum, so
   stores and checkpoint journals written before it miss and recompute
   rather than serve the old answers. *)
let numerics_tag = "vp2"

(* A stable fingerprint of every context field that can change an
   experiment's numbers — the checkpoint layer folds it into slot keys
   so a journal written under one context is never served under
   another (quick vs default, different seeds, grids, workloads, trace
   or numerics generations…). *)
let fingerprint t =
  Printf.sprintf
    "%s:%.1fK:%.2fV:l1=%d/%d:l2=%d/%d:b%d:out%d:w=%s:seed=%Ld:n=%d:g=%dx%d:cg=%dx%d:mem=%.2e:gen=%s:num=%s"
    t.tech.Tech.name t.tech.Tech.temp_k t.tech.Tech.vdd t.l1_size t.l1_assoc t.l2_size
    t.l2_assoc t.block_bytes t.l2_output_bits
    (String.concat "+" t.workloads)
    t.seed t.n_sim
    (Array.length t.grid.Grid.vths)
    (Array.length t.grid.Grid.toxs)
    (Array.length t.coarse_grid.Grid.vths)
    (Array.length t.coarse_grid.Grid.toxs)
    t.mem.Nmcache_energy.Main_memory.e_access Nmcache_workload.Registry.generator_tag
    numerics_tag

let l1_config t ?size () =
  Config.make
    ~size_bytes:(Option.value size ~default:t.l1_size)
    ~assoc:t.l1_assoc ~block_bytes:t.block_bytes ()

let l2_config t ?size () =
  Config.make
    ~size_bytes:(Option.value size ~default:t.l2_size)
    ~assoc:t.l2_assoc ~block_bytes:t.block_bytes ~output_bits:t.l2_output_bits ()

(* memoised characterisations; keyed on technology name + temperature +
   supply + config description (the fields that change fits) — the
   engine memo is domain-safe, so parallel sweeps share one cache *)
let memo : Fitted_cache.t Nmcache_engine.Memo.t =
  Nmcache_engine.Memo.create ~name:"context.fitted-models" ()

(* each fitted cache's tables over a grid, keyed by the fit's key and
   the grid's exact values *)
let tables_memo : Nmcache_opt.Scheme.tables Nmcache_engine.Memo.t =
  Nmcache_engine.Memo.create ~name:"context.scheme-tables" ()

let clear_memo () =
  Nmcache_engine.Memo.clear memo;
  Nmcache_engine.Memo.clear tables_memo

let corner_key t =
  Printf.sprintf "%s:%.1fK:%.2fV" t.tech.Tech.name t.tech.Tech.temp_k t.tech.Tech.vdd

let fitted_key t config =
  Printf.sprintf "%s:%s:out%d" (corner_key t) (Config.describe config)
    config.Config.output_bits

let grid_key grid =
  let values a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
  Printf.sprintf "vth=%s|tox=%s" (values grid.Grid.vths) (values grid.Grid.toxs)

(* Stored fits and optima name what they depend on and nothing more
   (not the workloads, seed or trace length of {!fingerprint}), so a
   store outlives a change of those; both end with the numerics
   generation. *)
let fit_key t config = Printf.sprintf "%s:num=%s" (fitted_key t config) numerics_tag

let search_key t ~grid =
  Printf.sprintf "%s|grid=%s:num=%s" (corner_key t)
    (Digest.to_hex (Digest.string (grid_key grid)))
    numerics_tag

let fitted t config =
  let key = fitted_key t config in
  Nmcache_engine.Memo.find_or_compute memo key (fun () ->
      (* fault point inside the memoised compute: injection here proves
         a failing fit never poisons the table (Pending is dropped,
         waiters retry and fail identically, key-deterministically) *)
      Nmcache_engine.Faultpoint.hit ~point:"context.fit" ~key ();
      Nmcache_engine.Trace.with_stage "context.characterize+fit" (fun () ->
          Fitted_cache.characterize_and_fit (Cache_model.make t.tech config)))

let tables t config ~grid =
  let key = Printf.sprintf "%s|%s" (fitted_key t config) (grid_key grid) in
  Nmcache_engine.Memo.find_or_compute tables_memo key (fun () ->
      Nmcache_opt.Scheme.tables (fitted t config) ~grid)

let l1_sizes = [| kb 4; kb 8; kb 16; kb 32; kb 64 |]
let l2_sizes = [| kb 256; kb 512; mb 1; mb 2; mb 4; mb 8 |]

let reference_knob t =
  ignore t;
  Component.knob ~vth:0.30 ~tox:(Units.angstrom 12.0)
