(* The layer ledger: the benchmark calls each layer's public functions
   directly, on inputs made from the seed, and times them.  Every
   traced run measures the same ledger whatever its workload, so a
   layer's cost per call can be compared across runs and commits. *)

module Tech = Nmcache_device.Tech
module Mosfet = Nmcache_device.Mosfet
module Leakage = Nmcache_device.Leakage
module Drive = Nmcache_device.Drive
module Units = Nmcache_physics.Units
module Config = Nmcache_geometry.Config
module Component = Nmcache_geometry.Component
module Cache_model = Nmcache_geometry.Cache_model
module Fitter = Nmcache_fit.Fitter
module Scheme = Nmcache_opt.Scheme
module Minimize = Nmcache_numerics.Minimize
module Rng = Nmcache_numerics.Rng
module Cache = Nmcache_cachesim.Cache
module Mattson = Nmcache_cachesim.Mattson
module Replacement = Nmcache_cachesim.Replacement
module Stream_trace = Nmcache_cachesim.Stream_trace
module Entry = Nmcache_cachesim.Trace
module Gen = Nmcache_workload.Gen
module Access = Nmcache_workload.Access
module Registry = Nmcache_workload.Registry
module Profile = Nmcache_workload.Profile
module Store = Nmcache_engine.Store
module Json = Nmcache_engine.Json
module Service = Core.Service
module Context = Core.Context

type metric = string * float * string

let median = Measure.median
let ms s = s *. 1e3
let us s = s *. 1e6

(* per-call samples of [f] over [n] calls, in seconds *)
let per_call n f =
  List.init n (fun i -> snd (Measure.time (fun () -> f i)))

(* ------------------------------------------------------------------ *)
(* ns and allocated words per call                                     *)

(* Batches of calls, each long enough to dwarf the clock read; the
   median batch.  Bechamel's OLS estimate moved 2-4x with the heap
   the workload left behind, and its allocation instances read
   Gc.quick_stat, whose minor count OCaml 5 only updates at a minor
   collection. *)
let per_call_cost ~name ~per_run f : metric list =
  let batch n =
    let w0 = Measure.allocated_words () in
    let (), dt =
      Measure.time (fun () ->
          for _ = 1 to n do
            ignore (Sys.opaque_identity (f ()))
          done)
    in
    (dt, Measure.allocated_words () -. w0)
  in
  let rec calls n = if fst (batch n) >= 0.02 then n else calls (2 * n) in
  let n = calls 1 in
  let batches = List.init 7 (fun _ -> batch n) in
  let per_op x = x /. float_of_int (n * per_run) in
  [
    (name ^ "_ns", per_op (median (List.map fst batches)) *. 1e9, "ns");
    (name ^ "_words", per_op (median (List.map snd batches)), "words");
  ]

let accesses ~seed n =
  let gen = Registry.build ~seed:(Int64.of_int seed) "spec2000-mix" in
  Array.map (fun (a : Access.t) -> a.Access.addr) (Gen.take gen n)

let micro ~seed ~tech ~ctx =
  let device = Mosfet.nmos tech ~w:200e-9 ~vth:0.30 ~tox:(Units.angstrom 12.0) in
  let circuit = Cache_model.make tech (Context.l1_config ctx ()) in
  let knob = Context.reference_knob ctx in
  let addresses = accesses ~seed 4096 in
  let cache =
    Cache.create ~size_bytes:(16 * 1024) ~assoc:4 ~block_bytes:64 ~policy:Replacement.Lru ()
  in
  let profiler = Mattson.create ~block_bytes:64 () in
  List.concat
    [
      per_call_cost ~name:"device.off_state_total" ~per_run:1 (fun () ->
          Leakage.off_state_total tech device);
      per_call_cost ~name:"device.on_current" ~per_run:1 (fun () -> Drive.on_current tech device);
      per_call_cost ~name:"circuit.evaluate_component" ~per_run:1 (fun () ->
          Cache_model.evaluate_component circuit Component.Array_sense knob);
      per_call_cost ~name:"cachesim.cache_access" ~per_run:4096 (fun () ->
          Array.iter (fun a -> ignore (Cache.access cache a ~write:false)) addresses);
      per_call_cost ~name:"cachesim.mattson_access" ~per_run:4096 (fun () ->
          Array.iter (fun a -> Mattson.access profiler a) addresses);
    ]

(* ------------------------------------------------------------------ *)
(* geometry -> fit -> opt on three of the serve-cold caches            *)

let ledger_configs ~seed =
  let rng = Rng.create ~seed:(Int64.of_int seed) in
  List.map
    (fun size_kb ->
      Config.make
        ~output_bits:[| 32; 64 |].(Rng.int rng ~bound:2)
        ~size_bytes:(size_kb * 1024)
        ~assoc:[| 1; 2; 4; 8 |].(Rng.int rng ~bound:4)
        ~block_bytes:[| 32; 64 |].(Rng.int rng ~bound:2)
        ())
    [ 8; 64; 512 ]

let model_layers ~tech ~ctx configs : metric list =
  let vths = Minimize.linspace ~lo:tech.Tech.vth_min ~hi:tech.Tech.vth_max ~steps:6 in
  let toxs = Minimize.linspace ~lo:tech.Tech.tox_min ~hi:tech.Tech.tox_max ~steps:4 in
  let characterize = ref [] and leak = ref [] and delay = ref [] and energy = ref [] in
  let push r (_, dt) = r := dt :: !r in
  let minimize = List.map (fun s -> (s, ref [])) Scheme.all in
  List.iter
    (fun config ->
      let circuit = Cache_model.make tech config in
      List.iter
        (fun kind ->
          let samples, dt =
            Measure.time (fun () -> Cache_model.characterize circuit kind ~vths ~toxs)
          in
          characterize := dt :: !characterize;
          push leak (Measure.time (fun () -> Fitter.fit_leak samples));
          push delay (Measure.time (fun () -> Fitter.fit_delay samples));
          push energy (Measure.time (fun () -> Fitter.fit_energy samples)))
        Component.all_kinds;
      (* memoised: the service section below answers these caches warm *)
      let fitted = Context.fitted ctx config in
      let grid = ctx.Context.grid in
      let delay_budget = 1.3 *. Scheme.fastest_access_time fitted ~grid in
      List.iter
        (fun (scheme, r) ->
          r :=
            per_call 3 (fun _ -> Scheme.minimize_leakage fitted ~grid ~scheme ~delay_budget)
            @ !r)
        minimize)
    configs;
  [
    ("geometry.characterize_ms", ms (median !characterize), "ms");
    ("fit.leak_ms", ms (median !leak), "ms");
    ("fit.delay_ms", ms (median !delay), "ms");
    ("fit.energy_ms", ms (median !energy), "ms");
  ]
  @ List.map
      (fun (scheme, r) ->
        (Printf.sprintf "opt.minimize_%s_ms" (Scheme.name scheme), ms (median !r), "ms"))
      minimize

(* ------------------------------------------------------------------ *)
(* workload generation, PPTRC01 encode / decode, streamed simulation   *)

let stream_layers ~seed : metric list =
  let n = 1_000_000 in
  let per_access s = s *. 1e9 /. float_of_int n in
  let gen = Registry.build ~seed:(Int64.of_int seed) "spec2000-mix" in
  let (), gen_s = Measure.time (fun () -> for _ = 1 to n do ignore (Gen.next gen) done) in
  let entries =
    Array.map
      (fun (a : Access.t) -> { Entry.addr = a.Access.addr; write = a.Access.write })
      (Gen.take (Registry.build ~seed:(Int64.of_int seed) "spec2000-mix") n)
  in
  let path = Filename.concat (Measure.fresh_dir "ledger-stream") "ledger.pptrc" in
  let i = ref (-1) in
  let (), encode_s =
    Measure.time (fun () ->
        Stream_trace.write_file ~path ~name:"spec2000-mix" ~n
          ~next:(fun () ->
            incr i;
            entries.(!i))
          ())
  in
  let decode () =
    Stream_trace.fold_chunks (Stream_trace.of_file path) ~init:0
      ~f:(fun count ~index:_ chunk -> count + Array.length chunk)
  in
  let decode_s = median (per_call 5 (fun _ -> decode ())) in
  if decode () <> n then failwith "ledger: the PPTRC01 file did not decode in full";
  (* the replay's simulation alone: the same entries, held in memory *)
  let in_memory = Entry.of_entries entries in
  let simulate_s =
    median
      (per_call 3 (fun _ ->
           Workloads.simulate (Stream_trace.of_trace ~name:"spec2000-mix" in_memory)))
  in
  let replay_words () =
    let w0 = Measure.allocated_words () in
    ignore (Workloads.replay path);
    Measure.allocated_words () -. w0
  in
  Profile.clear_cache ();
  let (_ : Profile.t), profile_s =
    Measure.time (fun () ->
        Profile.raw ~seed:(Int64.of_int seed) ~workload:"spec2000-mix"
          ~n:(Context.quick ()).Context.n_sim ())
  in
  [
    ("workload.gen_ns_per_access", per_access gen_s, "ns");
    ("workload.profile_build_s", profile_s, "s");
    ("cachesim.encode_ns_per_access", per_access encode_s, "ns");
    ("cachesim.decode_ns_per_access", per_access decode_s, "ns");
    ("cachesim.simulate_ns_per_access", per_access simulate_s, "ns");
    ( "cachesim.words_per_access",
      median (List.init 3 (fun _ -> replay_words ())) /. float_of_int n,
      "words" );
  ]

(* ------------------------------------------------------------------ *)
(* store, JSON, service and server on a small warm store               *)

let service_layers ~ctx configs : metric list =
  let dir = Measure.fresh_dir "ledger-store" in
  let lines =
    Array.of_list
      (List.mapi
         (fun i (c : Config.t) ->
           Printf.sprintf
             {|{"id":%d,"op":"optimize","scheme":"%s","size_kb":%d,"assoc":%d,"block_bytes":%d,"output_bits":%d,"delay_budget_ps":2500}|}
             i
             (Scheme.name (List.nth Scheme.all i))
             (c.Config.size_bytes / 1024) c.Config.assoc c.Config.block_bytes
             c.Config.output_bits)
         configs
      @ [
          {|{"id":"c","op":"miss_curve","workload":"tpcc","l1_kb":16,"l2_kb":[256,1024],"n":50000}|};
          {|{"id":"a","op":"amat","t_l1_ps":500,"t_l2_ps":2000,"t_mem_ps":60000,"m1":0.05,"m2":0.3}|};
        ])
  in
  let calls = 20_000 in
  let line i = lines.(i mod Array.length lines) in
  let store = Store.open_ ~dir in
  let service = Service.create ~store ~ctx ~queue:64 ~jobs:1 () in
  let handle i =
    let response, settle = Service.handle_line service (line i) in
    settle ();
    response
  in
  let responses = Array.init (Array.length lines) handle in
  let handle_s = median (per_call calls (fun i -> ignore (handle i))) in
  let parse_s = median (per_call calls (fun i -> ignore (Json.parse (line i)))) in
  let parsed = Array.map Json.parse_exn responses in
  let render_s =
    median
      (per_call calls (fun i -> ignore (Json.to_string parsed.(i mod Array.length parsed))))
  in
  let key i = Printf.sprintf "ledger|%d" i in
  let add_s =
    median
      (per_call 200 (fun i ->
           Store.add store ~ns:"ledger" ~key:(key i) parsed.(i mod Array.length parsed)))
  in
  let lookup_s =
    median
      (per_call calls (fun i ->
           ignore (Store.lookup store ~ns:"ledger" ~key:(key (i mod 200)) : Json.t option)))
  in
  Store.close store;
  let open_s = median (per_call 5 (fun _ -> Store.close (Store.open_ ~dir))) in
  let session = Session.start ~ctx ~dir in
  let round_trips =
    Quantile.summarize
      (Array.of_list
         (List.map us (per_call calls (fun i -> ignore (Session.request session (line i))))))
  in
  ignore (Session.stop session);
  [
    ("core.service.handle_line_us", us handle_s, "us");
    ("engine.json.parse_us", us parse_s, "us");
    ("engine.json.render_us", us render_s, "us");
    ("engine.store.lookup_us", us lookup_s, "us");
    ("engine.store.add_us", us add_s, "us");
    ("engine.store.open_ms", ms open_s, "ms");
    ("engine.server.overhead_us", round_trips.Quantile.p50 -. us handle_s, "us");
    ("engine.server.warm_p99_us", round_trips.Quantile.p99, "us");
    ("engine.server.warm_n", float_of_int round_trips.Quantile.n, "count");
  ]

let measure ~seed : metric list =
  (* the same heap whatever the workload left behind: allocation-heavy
     calls pay for major-GC work in proportion to it *)
  Workloads.clear_memos ();
  Gc.compact ();
  let ctx = Workloads.quick_ctx seed in
  let tech = ctx.Context.tech in
  let configs = ledger_configs ~seed in
  let model = model_layers ~tech ~ctx configs in
  micro ~seed ~tech ~ctx @ model @ stream_layers ~seed @ service_layers ~ctx configs
