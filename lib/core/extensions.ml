module Units = Nmcache_physics.Units
module Tech = Nmcache_device.Tech
module Knob_state = Nmcache_device.Knob_state
module Mosfet = Nmcache_device.Mosfet
module Variation = Nmcache_device.Variation
module Component = Nmcache_geometry.Component
module Config = Nmcache_geometry.Config
module Cache_model = Nmcache_geometry.Cache_model
module Fitted_cache = Nmcache_fit.Fitted_cache
module Sram_cell = Nmcache_circuit.Sram_cell
module Scheme = Nmcache_opt.Scheme
module Anneal = Nmcache_opt.Anneal
module Drowsy = Nmcache_energy.Drowsy
module Missrate = Nmcache_workload.Missrate
module Profile = Nmcache_workload.Profile
module Rng = Nmcache_numerics.Rng
module Cache = Nmcache_cachesim.Cache
module Prefetch = Nmcache_cachesim.Prefetch
module Replacement = Nmcache_cachesim.Replacement
module Gen = Nmcache_workload.Gen

(* --- X6: within-die variation --------------------------------------- *)

let variation_study ctx =
  let tech = ctx.Context.tech in
  let rng = Rng.create ~seed:77L in
  let rows =
    List.map
      (fun (label, w_factor, tox_a) ->
        let tox = Units.angstrom tox_a in
        let w = w_factor *. Tech.l_drawn tech ~tox in
        let sigma = Variation.sigma_vth tech ~w ~tox in
        let analytic =
          Variation.mean_inflation ~sigma ~n_swing:tech.Tech.n_swing
            ~temp_k:tech.Tech.temp_k
        in
        let mc =
          Variation.mc_inflation ~rng ~sigma ~n_swing:tech.Tech.n_swing
            ~temp_k:tech.Tech.temp_k ~samples:200_000
        in
        let corner =
          Variation.sigma_percentile_leakage ~sigma ~n_swing:tech.Tech.n_swing
            ~temp_k:tech.Tech.temp_k ~percentile:99.9
        in
        [
          label;
          Printf.sprintf "%.1f" (1e3 *. sigma);
          Printf.sprintf "%.3f" analytic;
          Printf.sprintf "%.3f" mc;
          Printf.sprintf "%.1fx" corner;
        ])
      [
        ("SRAM access (1.5L, 14A)", Sram_cell.access_ratio, 14.0);
        ("SRAM pull-down (2.2L, 14A)", Sram_cell.pulldown_ratio, 14.0);
        ("peripheral inverter (2L, 11A)", 2.0, 11.0);
        ("wide driver (16L, 11A)", 16.0, 11.0);
      ]
  in
  (* array-level effect at the leakage-optimal assignment *)
  let fitted = Context.fitted ctx (Context.l1_config ctx ()) in
  let knob = Component.knob ~vth:0.45 ~tox:(Units.angstrom 14.0) in
  let nominal = Fitted_cache.leak_of fitted Component.Array_sense knob in
  let cell = Sram_cell.make (Knob_state.make tech ~vth:0.45 ~tox:(Units.angstrom 14.0)) in
  let sigma_cell =
    Variation.sigma_vth tech ~w:cell.Sram_cell.pulldown.Mosfet.w ~tox:(Units.angstrom 14.0)
  in
  let inflation =
    Variation.mean_inflation ~sigma:sigma_cell ~n_swing:tech.Tech.n_swing
      ~temp_k:tech.Tech.temp_k
  in
  [
    Report.table
      ~title:"X6: Vth variation (Pelgrom) — mean-leakage inflation per device class"
      ~columns:
        [ "device"; "sigma(Vth) (mV)"; "E-inflation (analytic)"; "E-inflation (MC)"; "99.9% device" ]
      ~rows;
    Report.note
      (Printf.sprintf
         "16KB array at its quiet knob (0.45V, 14A): nominal %.3f mW becomes ~%.3f mW \
          (x%.3f) once cell-level variation is averaged in; exp-in-Vth leakage makes \
          variation strictly inflationary."
         (Units.to_mw nominal)
         (Units.to_mw (nominal *. inflation))
         inflation);
  ]

(* --- X7: supply scaling ----------------------------------------------- *)

let vdd_sensitivity ctx =
  let budget = ref None in
  let rows =
    List.map
      (fun vdd ->
        let tech = Tech.with_vdd ctx.Context.tech ~vdd in
        let ctx_v = { ctx with Context.tech } in
        let fitted = Context.fitted ctx_v (Context.l1_config ctx_v ()) in
        let tables = Context.tables ctx_v (Context.l1_config ctx_v ()) ~grid:ctx.Context.grid in
        let fast = Scheme.fastest tables in
        let b =
          match !budget with
          | Some b -> b
          | None ->
            let b = 1.35 *. fast in
            budget := Some b;
            b
        in
        let ref_est =
          Fitted_cache.eval fitted (Component.uniform (Context.reference_knob ctx))
        in
        match Scheme.minimize tables ~scheme:Scheme.Split ~delay_budget:b with
        | None ->
          [ Printf.sprintf "%.2f" vdd; Printf.sprintf "%.0f" (Units.to_ps fast);
            "infeasible"; "-" ]
        | Some r ->
          [
            Printf.sprintf "%.2f" vdd;
            Printf.sprintf "%.0f" (Units.to_ps fast);
            Printf.sprintf "%.3f" (Units.to_mw r.Scheme.leak_w);
            Printf.sprintf "%.2f" (Units.to_pj ref_est.Fitted_cache.dyn_energy);
          ])
      [ 0.9; 1.0; 1.1 ]
  in
  [
    Report.table
      ~title:"X7: supply sensitivity — 16KB cache, scheme II at a fixed 1.0V-derived budget"
      ~columns:[ "Vdd (V)"; "fastest access (ps)"; "min leakage (mW)"; "dyn energy (pJ)" ]
      ~rows;
    Report.note
      "Lower Vdd shrinks overdrive (slower, tighter feasibility) but cuts leakage \
       power (I*V) and dynamic energy (CV^2); the knob assignments shift accordingly.";
  ]

(* --- X8: drowsy standby vs process knobs -------------------------------- *)

let drowsy_comparison ctx =
  let fitted = Context.fitted ctx (Context.l2_config ctx ()) in
  let aggressive = Component.knob ~vth:0.25 ~tox:(Units.angstrom 11.0) in
  let quiet = Component.knob ~vth:0.5 ~tox:(Units.angstrom 14.0) in
  let eval_at array periph =
    let assignment = Component.split ~cell:array ~periphery:periph in
    let est = Fitted_cache.eval fitted assignment in
    let array_leak = Fitted_cache.leak_of fitted Component.Array_sense array in
    (est, array_leak)
  in
  let policy = Drowsy.default_policy in
  (* awake fraction / drowsy-hit estimate for the 1MB L2 under the
     headline workloads' L2 access stream *)
  let awake, drowsy_hit =
    Drowsy.simulate_awake_fraction ~window:4000 ~l2_size:ctx.Context.l2_size ~block:64
      ~accesses_per_window:2000 ~unique_block_fraction:0.35
  in
  let row label array periph use_drowsy =
    let est, array_leak = eval_at array periph in
    let periph_leak = est.Fitted_cache.leak_w -. array_leak in
    if use_drowsy then begin
      let e =
        Drowsy.apply policy ~array_leak_w:array_leak ~periph_leak_w:periph_leak
          ~access_time:est.Fitted_cache.access_time ~awake_fraction:awake
          ~drowsy_hit_rate:drowsy_hit
      in
      [
        label;
        Printf.sprintf "%.2f" (Units.to_mw e.Drowsy.leak_w);
        Printf.sprintf "%.0f" (Units.to_ps e.Drowsy.access_time);
        Printf.sprintf "%.0f%%" (100.0 *. e.Drowsy.leak_saving);
      ]
    end
    else
      [
        label;
        Printf.sprintf "%.2f" (Units.to_mw est.Fitted_cache.leak_w);
        Printf.sprintf "%.0f" (Units.to_ps est.Fitted_cache.access_time);
        "-";
      ]
  in
  [
    Report.note
      (Printf.sprintf "drowsy window: awake fraction %.0f%%, drowsy-hit rate %.1f%%"
         (100.0 *. awake) (100.0 *. drowsy_hit));
    Report.table ~title:"X8: drowsy standby vs process knobs (1MB L2)"
      ~columns:[ "design"; "leakage (mW)"; "access (ps)"; "drowsy saving" ]
      ~rows:
        [
          row "fast knobs, no drowsy" aggressive aggressive false;
          row "fast knobs + drowsy" aggressive aggressive true;
          row "paper knobs (scheme II), no drowsy" quiet aggressive false;
          row "paper knobs + drowsy" quiet aggressive true;
        ];
    Report.note
      "Process knobs and drowsy standby compose: the knob assignment removes the \
       always-on leakage floor cheaply at design time, drowsy mode attacks what \
       remains at run time for a small wake-up cost.";
  ]

(* --- X9: annealing cross-check ------------------------------------------- *)

let anneal_crosscheck ctx =
  let tables = Context.tables ctx (Context.l1_config ctx ()) ~grid:ctx.Context.grid in
  let fast = Scheme.fastest tables and slow = Scheme.slowest tables in
  let rows =
    List.filter_map
      (fun frac ->
        let budget = fast +. (frac *. (slow -. fast)) in
        match Scheme.minimize tables ~scheme:Scheme.Independent ~delay_budget:budget with
        | None -> None
        | Some exact ->
          let sa = Anneal.minimize_leakage tables ~delay_budget:budget () in
          let gap =
            if sa.Anneal.feasible then (sa.Anneal.leak_w /. exact.Scheme.leak_w) -. 1.0
            else Float.nan
          in
          Some
            [
              Printf.sprintf "%.0f" (Units.to_ps budget);
              Printf.sprintf "%.4f" (Units.to_mw exact.Scheme.leak_w);
              (if sa.Anneal.feasible then Printf.sprintf "%.4f" (Units.to_mw sa.Anneal.leak_w)
               else "infeasible");
              (if Float.is_nan gap then "-" else Printf.sprintf "%.2f%%" (100.0 *. gap));
            ])
      [ 0.05; 0.15; 0.3; 0.5; 0.75 ]
  in
  [
    Report.table ~title:"X9: simulated annealing vs exact search (scheme I, 16KB cache)"
      ~columns:[ "budget (ps)"; "exact optimum (mW)"; "SA result (mW)"; "SA gap" ]
      ~rows;
    Report.note
      "The stochastic optimiser matches the exact Pareto search to within ~2% over \
       most of the budget range (the gap widens only at the tightest budget, where \
       the feasible region collapses) -- evidence both that the search is correct and \
       that SA is a usable fallback for objectives the search cannot decompose.";
  ]

(* --- X10: associativity / block-size sweeps --------------------------------- *)

let geometry_sweeps ctx =
  let workload = "spec2000-mix" in
  let n = ctx.Context.n_sim in
  let ref_knob = Context.reference_knob ctx in
  (* block size changes the profiled stream itself, so each block size
     has its own raw-trace profile, independent of the L1 capacity
     queried; one walk builds all three *)
  let blocks = [ 32; 64; 128 ] in
  let profiles =
    List.combine blocks
      (Profile.build_many ~seed:ctx.Context.seed ~workload ~n
         (List.map (fun block -> (Profile.Raw, block)) blocks))
  in
  (* the 64 B profile serves every associativity row: the ways only
     enter through the binomial set-associative correction *)
  let assoc_profile = List.assoc 64 profiles in
  let assoc_rows =
    List.map
      (fun assoc ->
        let cfg = Config.make ~size_bytes:ctx.Context.l1_size ~assoc ~block_bytes:64 () in
        let model = Cache_model.make ctx.Context.tech cfg in
        let r = Cache_model.evaluate model (Component.uniform ref_knob) in
        let miss =
          Profile.setassoc_miss_rate assoc_profile
            ~capacity_blocks:(max 1 (ctx.Context.l1_size / 64)) ~assoc
        in
        [
          string_of_int assoc;
          Report.fmt_pct miss;
          Printf.sprintf "%.0f" (Units.to_ps r.Cache_model.access_time);
          Printf.sprintf "%.3f" (Units.to_mw r.Cache_model.leak_w);
        ])
      [ 1; 2; 4; 8; 16 ]
  in
  let block_rows =
    List.map
      (fun (block, prof) ->
        let cfg = Config.make ~size_bytes:ctx.Context.l1_size ~assoc:4 ~block_bytes:block () in
        let model = Cache_model.make ctx.Context.tech cfg in
        let r = Cache_model.evaluate model (Component.uniform ref_knob) in
        let miss =
          Profile.setassoc_miss_rate prof
            ~capacity_blocks:(max 1 (ctx.Context.l1_size / block)) ~assoc:4
        in
        [
          string_of_int block;
          Report.fmt_pct miss;
          Printf.sprintf "%.0f" (Units.to_ps r.Cache_model.access_time);
          Printf.sprintf "%.3f" (Units.to_mw r.Cache_model.leak_w);
        ])
      profiles
  in
  [
    Report.table ~title:"X10a: L1 associativity sweep (16KB, 64B blocks, reference knobs)"
      ~columns:[ "ways"; "miss rate"; "access (ps)"; "leakage (mW)" ]
      ~rows:assoc_rows;
    Report.table ~title:"X10b: L1 block-size sweep (16KB, 4-way, reference knobs)"
      ~columns:[ "block (B)"; "miss rate"; "access (ps)"; "leakage (mW)" ]
      ~rows:block_rows;
    Report.note
      "Associativity beyond 4 ways buys little miss rate for this mix while the \
       geometry model charges wider tag compares; larger blocks exploit the spatial \
       runs in the generators.";
  ]

(* --- X11: prefetching vs L2 sizing ------------------------------------------ *)

let prefetch_study ctx =
  let workload = "spec2000-mix" in
  let n = ctx.Context.n_sim / 2 in
  (* one prefetcher per (L2 size, degree), all fed by one walk through
     the [Prefetch.run] kernel: warm half, measure half; count demand
     L2 behaviour only *)
  let prefetcher ~l2_size ~degree =
    let l1 =
      Cache.create ~size_bytes:ctx.Context.l1_size ~assoc:ctx.Context.l1_assoc
        ~block_bytes:ctx.Context.block_bytes ~policy:Replacement.Lru ()
    in
    let l2 =
      Cache.create ~size_bytes:l2_size ~assoc:ctx.Context.l2_assoc
        ~block_bytes:ctx.Context.block_bytes ~policy:Replacement.Lru ()
    in
    let p = Prefetch.create ~degree ~l1 ~l2 () in
    let consumer = { Gen.feed = Prefetch.run p; measure = (fun () -> Prefetch.reset_demand p) } in
    let result () =
      let demand = Prefetch.demand_accesses p in
      let m2 =
        if demand = 0 then 0.0
        else float_of_int (Prefetch.demand_misses p) /. float_of_int demand
      in
      (m2, Prefetch.accuracy p)
    in
    (consumer, result)
  in
  let sizes = [| 256 * 1024; 1024 * 1024; 4 * 1024 * 1024 |] in
  let runs =
    Array.map
      (fun l2_size -> Array.map (fun degree -> prefetcher ~l2_size ~degree) [| 0; 1; 2 |])
      sizes
  in
  Gen.walk ~stage:"simulate"
    (Nmcache_workload.Registry.build ~seed:ctx.Context.seed workload)
    n
    (Array.map fst (Array.concat (Array.to_list runs)));
  let rows =
    Array.to_list
      (Array.map2
         (fun l2_size run ->
           let m0, _ = snd run.(0) () in
           let m1, acc1 = snd run.(1) () in
           let m2, _ = snd run.(2) () in
           [
             (if l2_size >= 1 lsl 20 then Printf.sprintf "%dMB" (l2_size lsr 20)
              else Printf.sprintf "%dKB" (l2_size lsr 10));
             Report.fmt_pct m0;
             Report.fmt_pct m1;
             Report.fmt_pct m2;
             Report.fmt_pct acc1;
           ])
         sizes runs)
  in
  [
    Report.table
      ~title:
        (Printf.sprintf "X11: next-line prefetching vs L2 size (%s, demand L2 local miss)"
           workload)
      ~columns:[ "L2 size"; "degree 0"; "degree 1"; "degree 2"; "accuracy (d=1)" ]
      ~rows;
    Report.note
      "Next-line prefetching trims the streaming component of the L2 miss rate, \
       helping most where capacity is plentiful; at small sizes higher degrees start \
       to pollute (degree 2 worse than 1 at 256KB). The miss-rate curve shifts down \
       but keeps its shape, so the leakage-turnover sizing conclusion is \
       prefetch-robust.";
  ]
