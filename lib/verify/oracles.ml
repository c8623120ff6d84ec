module Units = Nmcache_physics.Units
module Component = Nmcache_geometry.Component
module Fitted_cache = Nmcache_fit.Fitted_cache
module Fitter = Nmcache_fit.Fitter
module Model = Nmcache_fit.Model
module Grid = Nmcache_opt.Grid
module Scheme = Nmcache_opt.Scheme
module Anneal = Nmcache_opt.Anneal
module Cache = Nmcache_cachesim.Cache
module Mattson = Nmcache_cachesim.Mattson
module Replacement = Nmcache_cachesim.Replacement
module Stats = Nmcache_cachesim.Stats
module Gen = Nmcache_workload.Gen
module Access = Nmcache_workload.Access
module Registry = Nmcache_workload.Registry
module Trace = Nmcache_cachesim.Trace
module Stream_trace = Nmcache_cachesim.Stream_trace
module Wstream = Nmcache_workload.Stream
module Context = Core.Context

(* ------------------------------------------------------------------ *)
(* Oracle 1: exhaustive grid enumeration vs the scheme optimisers      *)

(* The documented tolerances.  The exact searches (I's Pareto search,
   II and III exhaustive) must agree with brute force to rounding; the
   annealer is stochastic-but-seeded, so it gets a looser one-sided
   bound. *)
let anneal_slack = 1.05
let exact_tol = 1e-9

(* per-component fitted leak/delay over the downsampled grid, the
   shared substrate of reference and production searches (the oracle
   tests the *search*, not the models — the fit oracle tests those) *)
let tables fitted knobs =
  let eval f =
    Array.of_list
      (List.map (fun kind -> Array.map (fun k -> f fitted kind k) knobs) Component.all_kinds)
  in
  (eval Fitted_cache.leak_of, eval Fitted_cache.delay_of)

let sum4 t i0 i1 i2 i3 = t.(0).(i0) +. t.(1).(i1) +. t.(2).(i2) +. t.(3).(i3)

(* brute-force minimum leakage under the budget, per scheme structure;
   n^4 on the downsampled grid is a few 10k sums *)
let brute_force (leak, delay) ~scheme ~delay_budget =
  let n = Array.length leak.(0) in
  let best = ref None in
  let consider i0 i1 i2 i3 =
    if sum4 delay i0 i1 i2 i3 <= delay_budget then begin
      let l = sum4 leak i0 i1 i2 i3 in
      match !best with Some b when b <= l -> () | _ -> best := Some l
    end
  in
  (match scheme with
  | Scheme.Uniform -> for i = 0 to n - 1 do consider i i i i done
  | Scheme.Split ->
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        consider i j j j
      done
    done
  | Scheme.Independent ->
    for i0 = 0 to n - 1 do
      for i1 = 0 to n - 1 do
        for i2 = 0 to n - 1 do
          for i3 = 0 to n - 1 do
            consider i0 i1 i2 i3
          done
        done
      done
    done);
  !best

let budget_fractions = [ 0.1; 0.3; 0.5; 0.8 ]

let scheme ctx =
  Check.group ~name:"oracle.scheme" @@ fun () ->
  let config = Context.l1_config ctx () in
  let grid = Grid.subsample ctx.Context.grid ~vths:4 ~toxs:3 in
  let t = tables (Context.fitted ctx config) (Grid.knobs grid) in
  let production = Context.tables ctx config ~grid in
  let fast = Scheme.fastest production and slow = Scheme.slowest production in
  List.concat_map
    (fun frac ->
      let budget = fast +. (frac *. (slow -. fast)) in
      let scheme_checks s =
        let name what =
          Printf.sprintf "oracle.scheme.%s.%s@%.1f" what (Scheme.name s) frac
        in
        match
          (brute_force t ~scheme:s ~delay_budget:budget,
           Scheme.minimize production ~scheme:s ~delay_budget:budget)
        with
        | None, None -> [ Check.pass ~name:(name "brute-vs-opt") "both infeasible" ]
        | Some b, None ->
          [ Check.fail ~name:(name "brute-vs-opt")
              (Printf.sprintf "optimizer infeasible, brute force found %.6g W" b) ]
        | None, Some r ->
          [ Check.fail ~name:(name "brute-vs-opt")
              (Printf.sprintf "optimizer found %.6g W on a brute-infeasible budget"
                 r.Scheme.leak_w) ]
        | Some b, Some r ->
          let budget_ok =
            Check.check ~name:(name "budget")
              (r.Scheme.access_time <= budget *. (1.0 +. exact_tol))
              (Printf.sprintf "access %.6g s within budget %.6g s" r.Scheme.access_time
                 budget)
          in
          let search =
            match s with
            | Scheme.Independent -> "brute-vs-pareto"
            | Scheme.Split | Scheme.Uniform -> "brute-vs-exhaustive"
          in
          let agree =
            Check.within ~name:(name search) ~value:r.Scheme.leak_w ~reference:b
              ~rel_tol:exact_tol
          in
          [ agree; budget_ok ]
      in
      let anneal_checks =
        let name what = Printf.sprintf "oracle.scheme.%s.anneal@%.1f" what frac in
        match brute_force t ~scheme:Scheme.Independent ~delay_budget:budget with
        | None -> []
        | Some b ->
          let r = Anneal.minimize_leakage production ~delay_budget:budget () in
          [
            Check.check ~name:(name "feasible") r.Anneal.feasible
              (Printf.sprintf "best feasible state found after %d evaluations"
                 r.Anneal.evaluations);
            Check.check ~name:(name "brute-vs")
              (r.Anneal.leak_w >= b *. (1.0 -. exact_tol)
              && r.Anneal.leak_w <= b *. anneal_slack)
              (Printf.sprintf "anneal %.6g W vs brute %.6g W (tol [1, %.2f])"
                 r.Anneal.leak_w b anneal_slack);
            Check.check ~name:(name "budget")
              (r.Anneal.access_time <= budget *. (1.0 +. exact_tol))
              (Printf.sprintf "access %.6g s within budget %.6g s" r.Anneal.access_time
                 budget);
          ]
      in
      List.concat_map scheme_checks Scheme.all @ anneal_checks)
    budget_fractions

(* ------------------------------------------------------------------ *)
(* Oracle 2: Mattson one-pass curves vs direct cache simulation        *)

(* Trace length: long enough to exercise compaction and steady state,
   short enough that verify stays interactive. *)
let mattson_trace_len ctx = min ctx.Context.n_sim 60_000

let capacities_blocks = [| 16; 64; 256; 1024 |]

(* fully-associative LRU divergence tolerance for 8-way set-associative
   caches: absolute on the miss rate, because the claim "excellent
   approximation for >= 8 ways" is an absolute-error claim *)
let setassoc_abs_tol = 0.03

let simulate_policy trace ~block ~capacity_blocks ~assoc ~policy =
  let cache =
    Cache.create ~size_bytes:(capacity_blocks * block) ~assoc ~block_bytes:block ~policy ()
  in
  Array.iter (fun (a : Access.t) -> ignore (Cache.access cache a.Access.addr ~write:a.Access.write)) trace;
  let st = Cache.stats cache in
  (st.Stats.misses, Stats.miss_rate st)

let mattson ctx =
  Check.group ~name:"oracle.mattson" @@ fun () ->
  let block = ctx.Context.block_bytes in
  let n = mattson_trace_len ctx in
  List.concat_map
    (fun workload ->
      let trace = Gen.take (Registry.build ~seed:ctx.Context.seed workload) n in
      let profiler = Mattson.create ~block_bytes:block () in
      Array.iter (fun (a : Access.t) -> Mattson.access profiler a.Access.addr) trace;
      Array.to_list capacities_blocks
      |> List.concat_map (fun cap ->
             let m_misses = Mattson.misses_at profiler ~capacity_blocks:cap in
             let m_rate = Mattson.miss_rate_at profiler ~capacity_blocks:cap in
             let exact =
               let misses, _ =
                 simulate_policy trace ~block ~capacity_blocks:cap ~assoc:cap
                   ~policy:Replacement.Lru
               in
               Check.check
                 ~name:(Printf.sprintf "oracle.mattson.fullassoc-lru.%s.%dblk" workload cap)
                 (misses = m_misses)
                 (Printf.sprintf "direct %d misses vs mattson %d over %d accesses" misses
                    m_misses n)
             in
             let approx =
               List.map
                 (fun policy ->
                   let _, rate =
                     simulate_policy trace ~block ~capacity_blocks:cap ~assoc:8 ~policy
                   in
                   let diff = Float.abs (rate -. m_rate) in
                   Check.check
                     ~name:
                       (Printf.sprintf "oracle.mattson.8way-%s.%s.%dblk"
                          (Replacement.name policy) workload cap)
                     (diff <= setassoc_abs_tol)
                     (Printf.sprintf "direct %.4f vs mattson %.4f (|diff| %.4f <= %.2f)"
                        rate m_rate diff setassoc_abs_tol))
                 [ Replacement.Lru; Replacement.Fifo; Replacement.Plru ]
             in
             exact :: approx))
    Registry.headline

(* ------------------------------------------------------------------ *)
(* Oracle 3: compact models vs their raw characterisation samples      *)

(* max_rel: the worst fit here (the L1 address drivers' leakage) sits at
   0.372 and is model-form error, not a fitter shortfall — see the
   fitcheck experiment.  The bound leaves 0.028 of margin above it. *)
let min_r2 = 0.90
let max_rel_bound = 0.40
let quality_repro_tol = 1e-9

let fit ctx =
  Check.group ~name:"oracle.fit" @@ fun () ->
  List.concat_map
    (fun (level, config) ->
      let fitted = Context.fitted ctx config in
      List.concat_map
        (fun (cm : Fitted_cache.component_model) ->
          let kind = Component.kind_name cm.Fitted_cache.kind in
          let samples = Fitted_cache.samples fitted cm.Fitted_cache.kind in
          let name what = Printf.sprintf "oracle.fit.%s.%s.%s" level kind what in
          let per (label, recomputed, (stored : Model.quality)) =
            [
              (* re-evaluating the model over the raw samples must land
                 exactly on the quality the fitter reported — a drifted
                 fast path would show up here first *)
              Check.within ~name:(name (label ^ ".r2-reproduced"))
                ~value:recomputed.Model.r2 ~reference:stored.Model.r2
                ~rel_tol:quality_repro_tol;
              Check.check
                ~name:(name (label ^ ".r2-bound"))
                (recomputed.Model.r2 >= min_r2)
                (Printf.sprintf "r2 %.4f >= %.2f over %d samples" recomputed.Model.r2
                   min_r2 (Array.length samples));
              Check.check
                ~name:(name (label ^ ".max-rel-bound"))
                (recomputed.Model.max_rel <= max_rel_bound)
                (Printf.sprintf "max relative residual %.4f <= %.2f"
                   recomputed.Model.max_rel max_rel_bound);
            ]
          in
          List.concat_map per
            [
              ("leak", Fitter.quality_leak cm.Fitted_cache.leak samples,
               cm.Fitted_cache.leak_quality);
              ("delay", Fitter.quality_delay cm.Fitted_cache.delay samples,
               cm.Fitted_cache.delay_quality);
            ])
        (Fitted_cache.components fitted))
    [ ("l1", Context.l1_config ctx ()); ("l2", Context.l2_config ctx ()) ]

(* ------------------------------------------------------------------ *)
(* Oracle 3b: a clean run records no faults                            *)

module Metrics = Nmcache_engine.Metrics
module Fault = Nmcache_engine.Fault
module Faultpoint = Nmcache_engine.Faultpoint
module Cache_model = Nmcache_geometry.Cache_model

(* Fits are the only stage that faults without injection, so re-fitting
   every L1 and L2 size the experiments sweep, bypassing the memo, is a
   clean run of everything that can fault: it must record no fault,
   exhaust no retry, and converge every fit on its first attempt. *)
let clean ctx =
  Check.group ~name:"oracle.clean" @@ fun () ->
  if Faultpoint.active () then
    [ Check.pass ~name:"oracle.clean.skipped" "fault injection armed: not a clean run" ]
  else
    let configs =
      Array.to_list (Array.map (fun size -> Context.l1_config ctx ~size ()) Context.l1_sizes)
      @ Array.to_list (Array.map (fun size -> Context.l2_config ctx ~size ()) Context.l2_sizes)
    in
    let c = Metrics.counter_value in
    let faults0 = List.length (Fault.recorded ()) in
    let exhausted0 = c "retry.exhausted" and attempts0 = c "retry.attempts" in
    let fits0 = c "lm.fits" and converged0 = c "lm.converged" in
    List.iter
      (fun config ->
        ignore (Fitted_cache.characterize_and_fit (Cache_model.make ctx.Context.tech config)))
      configs;
    let faults = List.length (Fault.recorded ()) - faults0 in
    let exhausted = c "retry.exhausted" - exhausted0 in
    let retries = c "retry.attempts" - attempts0 in
    let fits = c "lm.fits" - fits0 and converged = c "lm.converged" - converged0 in
    let n = List.length configs in
    [
      Check.check ~name:"oracle.clean.zero-faults" (faults = 0)
        (Printf.sprintf "%d faults recorded fitting %d caches" faults n);
      Check.check ~name:"oracle.clean.retries-exhausted" (exhausted = 0 && retries = 0)
        (Printf.sprintf "retries: %d attempts, %d exhausted" retries exhausted);
      Check.check ~name:"oracle.clean.converged" (fits > 0 && converged = fits)
        (Printf.sprintf "%d of %d fits converged on their first attempt" converged fits);
    ]

(* ------------------------------------------------------------------ *)
(* Oracle 4: profile-derived miss curves vs direct simulation          *)

module Missrate = Nmcache_workload.Missrate
module Profile = Nmcache_workload.Profile

(* the derivation layer inherits the Mattson-vs-direct tolerance: its
   set-associative binomial correction must stay inside the same
   absolute band the fully-associative approximation is held to *)
let profile_abs_tol = setassoc_abs_tol

(* direct measured simulation with the same warmup discipline the
   profiles use: unmeasured first half, stats reset at the boundary *)
let direct_l1_measured ~workload ~seed ~block ~size_bytes ~assoc ~n =
  let gen = Registry.build ~seed workload in
  let c = Cache.create ~size_bytes ~assoc ~block_bytes:block ~policy:Replacement.Lru () in
  let warm = int_of_float (Profile.warmup_fraction *. float_of_int n) in
  let feed addr write = ignore (Cache.access c addr ~write) in
  Gen.iter ~stage:"oracle" gen warm feed;
  Cache.reset_stats c;
  Gen.iter ~stage:"oracle" gen (n - warm) feed;
  let st = Cache.stats c in
  (st.Stats.misses, Stats.miss_rate st)

let profile ctx =
  Check.group ~name:"oracle.profile" @@ fun () ->
  let block = ctx.Context.block_bytes in
  let n = mattson_trace_len ctx in
  let seed = ctx.Context.seed in
  let sized =
    List.concat_map
      (fun workload ->
        let prof = Profile.raw ~block ~seed ~workload ~n () in
        (* exactness: fully-associative LRU derivation must equal the
           direct simulation miss-for-miss, warmup included *)
        let exact =
          List.map
            (fun cap ->
              let direct, _ =
                direct_l1_measured ~workload ~seed ~block ~size_bytes:(cap * block)
                  ~assoc:cap ~n
              in
              let derived = Profile.misses_at prof ~capacity_blocks:cap in
              Check.check
                ~name:(Printf.sprintf "oracle.profile.fullassoc.%s.%dblk" workload cap)
                (direct = derived)
                (Printf.sprintf "direct %d misses vs derived %d over %d measured accesses"
                   direct derived prof.Profile.accesses))
            [ 64; 256 ]
        in
        (* the binomial set-associative correction behind the derived
           L1 sweep, against direct set-associative LRU simulation *)
        let corrected =
          List.concat_map
            (fun assoc ->
              List.map
                (fun size_bytes ->
                  let _, direct_rate =
                    direct_l1_measured ~workload ~seed ~block ~size_bytes ~assoc ~n
                  in
                  let derived =
                    Profile.setassoc_miss_rate prof
                      ~capacity_blocks:(size_bytes / block) ~assoc
                  in
                  let diff = Float.abs (derived -. direct_rate) in
                  Check.check
                    ~name:
                      (Printf.sprintf "oracle.profile.%dway.%s.%dKB" assoc workload
                         (size_bytes / 1024))
                    (diff <= profile_abs_tol)
                    (Printf.sprintf "direct %.4f vs derived %.4f (|diff| %.4f <= %.2f)"
                       direct_rate derived diff profile_abs_tol))
                [ 4 * 1024; 16 * 1024; 64 * 1024 ])
            [ 4; 8 ]
        in
        (* the profile-backed l2_curve must reproduce the legacy
           "L1-filter + Mattson fold" pass float-for-float — the
           identity the committed goldens rely on *)
        let l2_sizes = [| 256 * 1024; 1024 * 1024; 4 * 1024 * 1024 |] in
        let curve_equiv =
          let l1_size = ctx.Context.l1_size in
          let derived =
            Missrate.l2_curve ~seed ~block ~workload ~l1_size ~l2_sizes ~n ()
          in
          let gen = Registry.build ~seed workload in
          let l1 =
            Cache.create ~size_bytes:l1_size ~assoc:4 ~block_bytes:block
              ~policy:Replacement.Lru ()
          in
          let profiler = Mattson.create ~block_bytes:block () in
          let feed addr write =
            let o = Cache.access l1 addr ~write in
            if not (Cache.hit o) then Mattson.access profiler addr
          in
          let warm = int_of_float (Profile.warmup_fraction *. float_of_int n) in
          Mattson.set_measuring profiler false;
          Gen.iter ~stage:"oracle" gen warm feed;
          Cache.reset_stats l1;
          Mattson.set_measuring profiler true;
          Gen.iter ~stage:"oracle" gen (n - warm) feed;
          let caps = Array.map (fun s -> max 1 (s / block)) l2_sizes in
          let legacy = Mattson.miss_ratio_curve profiler ~capacities:caps in
          let legacy_l1 = Stats.miss_rate (Cache.stats l1) in
          [
            Check.check
              ~name:(Printf.sprintf "oracle.profile.l2curve-identity.%s" workload)
              (derived.Missrate.l2_local_rates = legacy
              && derived.Missrate.l1_miss_rate = legacy_l1)
              (Printf.sprintf "derived curve == legacy single-pass curve (l1 %.6f)"
                 legacy_l1);
          ]
        in
        exact @ corrected @ curve_equiv)
      Registry.headline
  in
  (* traversal accounting: an L1×L2 grid must build exactly one profile
     per (workload, L1 size), in one walk per workload, and run zero
     per-point simulations.  A seed distinct from every other caller
     keeps the memo tables cold regardless of check ordering. *)
  let accounting =
    let seed = Int64.add seed 7919L in
    let workloads = [ "spec2000-mix"; "tpcc" ] in
    let l1_sizes = [| 8 * 1024; 16 * 1024 |] in
    let l2_sizes = [| 256 * 1024; 1024 * 1024; 4 * 1024 * 1024 |] in
    let sims0 = Metrics.counter_value "cachesim.simulations" in
    let profs0 = Metrics.counter_value "cachesim.mattson_curves" in
    let walks0 = Metrics.counter_value "workload.walks" in
    let _ = Missrate.grid ~seed ~workloads ~l1_sizes ~l2_sizes ~n () in
    (* re-deriving at different L2 capacities must not traverse again *)
    let _ =
      Missrate.grid ~seed ~workloads ~l1_sizes ~l2_sizes:[| 512 * 1024; 2 * 1024 * 1024 |]
        ~n ()
    in
    let sims = Metrics.counter_value "cachesim.simulations" - sims0 in
    let profs = Metrics.counter_value "cachesim.mattson_curves" - profs0 in
    let walks = Metrics.counter_value "workload.walks" - walks0 in
    let expected = List.length workloads * Array.length l1_sizes in
    [
      Check.check ~name:"oracle.profile.grid-traversals"
        (profs = expected)
        (Printf.sprintf "%d workloads x %d L1 sizes x %d L2 sizes -> %d traversals \
                         (expected %d, L2 re-query free)"
           (List.length workloads) (Array.length l1_sizes) (Array.length l2_sizes) profs
           expected);
      Check.check ~name:"oracle.profile.grid-walks"
        (walks = List.length workloads)
        (Printf.sprintf "%d walks for %d workloads (expected one per workload)" walks
           (List.length workloads));
      Check.check ~name:"oracle.profile.grid-no-pointwise-sims" (sims = 0)
        (Printf.sprintf "%d per-point simulations during the grid (expected 0)" sims);
    ]
  in
  sized @ accounting

(* ------------------------------------------------------------------ *)
(* Oracle 5: streamed vs materialised trace processing                 *)

(* The streaming engine's whole contract is "chunking changes nothing":
   every consumer fed through Stream_trace must produce results equal
   to the same consumer over the materialised trace, at any chunk
   size.  Probed chunk sizes straddle the interesting boundaries: a
   degenerate-small chunk that never divides the trace evenly, and one
   that does. *)
let stream_chunk_sizes = [ 7; 4096 ]

let stream ctx =
  Check.group ~name:"oracle.stream" @@ fun () ->
  let block = ctx.Context.block_bytes in
  let n = mattson_trace_len ctx in
  let entries_of workload =
    Array.map
      (fun (a : Access.t) -> { Trace.addr = a.Access.addr; write = a.Access.write })
      (Gen.take (Registry.build ~seed:ctx.Context.seed workload) n)
  in
  let replay_stats trace_stream =
    let c =
      Cache.create ~size_bytes:(64 * block) ~assoc:4 ~block_bytes:block
        ~policy:Replacement.Lru ()
    in
    let c, _ = Stream_trace.replay trace_stream c in
    Cache.stats c
  in
  let equivalence =
    List.concat_map
      (fun workload ->
        let entries = entries_of workload in
        let trace = Trace.of_entries entries in
        let ref_stats = Trace.analyze trace in
        let ref_cache =
          let c =
            Cache.create ~size_bytes:(64 * block) ~assoc:4 ~block_bytes:block
              ~policy:Replacement.Lru ()
          in
          Trace.replay trace c;
          Cache.stats c
        in
        List.concat_map
          (fun cs ->
            let stream () = Stream_trace.of_trace ~chunk_size:cs ~name:workload trace in
            [
              Check.check
                ~name:(Printf.sprintf "oracle.stream.analyze.%s.chunk%d" workload cs)
                (Stream_trace.analyze (stream ()) = ref_stats)
                (Printf.sprintf "streamed analyze equals materialised over %d accesses" n);
              Check.check
                ~name:(Printf.sprintf "oracle.stream.replay.%s.chunk%d" workload cs)
                (replay_stats (stream ()) = ref_cache)
                "streamed cache replay equals materialised";
            ])
          stream_chunk_sizes)
      Registry.headline
  in
  let simulate_equiv =
    (* the CLI-visible contract: `simulate --workload` streams, and
       streaming must not change a single bit of the walk's rates *)
    let workload = List.hd Registry.headline in
    let l1_size = 32 * 1024 and l2_size = 256 * 1024 in
    let reference =
      Missrate.simulate ~block ~seed:ctx.Context.seed ~workload ~l1_size ~l2_size ~n ()
    in
    List.map
      (fun cs ->
        let stream =
          Wstream.of_workload ~chunk_size:cs ~seed:ctx.Context.seed ~workload ~n ()
        in
        let point = Missrate.simulate_stream ~block ~stream ~l1_size ~l2_size () in
        Check.check
          ~name:(Printf.sprintf "oracle.stream.simulate.%s.chunk%d" workload cs)
          (point = reference)
          (Printf.sprintf "streamed rates %.6f/%.6f/%.6f equal simulate's"
             point.Missrate.l1_miss point.Missrate.l2_local point.Missrate.l2_global))
      stream_chunk_sizes
  in
  let roundtrip =
    let workload = List.hd Registry.headline in
    let entries = entries_of workload in
    let path = Filename.temp_file "ppcache-oracle" ".pptrc" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let i = ref 0 in
        Stream_trace.write_file ~path ~name:workload ~chunk_size:1000
          ~next:(fun () ->
            let e = entries.(!i) in
            incr i;
            e)
          ~n ();
        let info = Stream_trace.file_info path in
        let got = ref [] in
        let got_n = Stream_trace.iter (Stream_trace.of_file ~chunk_size:777 path)
            (fun addr write -> got := { Trace.addr; write } :: !got)
        in
        let got = Array.of_list (List.rev !got) in
        [
          Check.check ~name:"oracle.stream.pptrc-roundtrip"
            (got = entries && got_n = n)
            (Printf.sprintf "%d entries decode bit-exactly" n);
          Check.check ~name:"oracle.stream.pptrc-info"
            (info.Stream_trace.fi_entries = n
            && info.Stream_trace.fi_total = n
            && not info.Stream_trace.fi_dropped_tail)
            (Printf.sprintf "info: %d/%d entries in %d chunks, dropped_tail %b"
               info.Stream_trace.fi_entries info.Stream_trace.fi_total
               info.Stream_trace.fi_chunks info.Stream_trace.fi_dropped_tail);
        ])
  in
  let empty =
    [
      Check.check ~name:"oracle.stream.empty-zero-stats"
        (Stream_trace.analyze
           (Stream_trace.of_trace ~name:"empty" (Trace.of_entries [||]))
        = Trace.zero_stats)
        "empty stream analyzes to the defined zero_stats";
    ]
  in
  equivalence @ simulate_equiv @ roundtrip @ empty

let all ctx = scheme ctx @ mattson ctx @ fit ctx @ clean ctx @ profile ctx @ stream ctx
