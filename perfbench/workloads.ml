(* The four workloads.  Each one measures its set-up in fresh processes
   (setup_s), runs a closed loop of its operation with one client for
   the requested seconds, and checks every output.  A traced
   run first measures a calibration slice with spans off and then on
   (trace_overhead_frac), and keeps the spans of the timed region. *)

module Context = Core.Context
module Experiments = Core.Experiments
module Service = Core.Service
module Store = Nmcache_engine.Store
module Span = Nmcache_engine.Span
module Trace = Nmcache_engine.Trace
module Metrics = Nmcache_engine.Metrics
module Json = Nmcache_engine.Json
module Rng = Nmcache_numerics.Rng
module Zipf = Nmcache_numerics.Zipf
module Registry = Nmcache_workload.Registry
module Missrate = Nmcache_workload.Missrate
module Gen = Nmcache_workload.Gen
module Access = Nmcache_workload.Access
module Stream_trace = Nmcache_cachesim.Stream_trace
module Golden = Nmcache_verify.Golden

let names = [ "repro-quick"; "serve-cold"; "serve-warm"; "stream-replay" ]

(* the memo tables a fresh process starts without *)
let memo_caches =
  [
    "context.fitted-models";
    "workload.profiles";
    "missrate.points";
    "missrate.l1";
    "missrate.averaged";
  ]

let clear_memos () =
  Context.clear_memo ();
  Missrate.clear_cache ();
  Nmcache_workload.Profile.clear_cache ()

let quick_ctx seed = { (Context.quick ()) with Context.seed = Int64.of_int seed }

(* What the program's own instrumentation says at one instant; the
   traced metrics are differences across the timed region. *)
type probe = {
  stages : (string * float) list;  (** Engine.Trace busy seconds per stage *)
  memos : (string * (int * int)) list;  (** hits, misses *)
  service_us : float;  (** Σ Service.handle_line time *)
  gc : Measure.gc;
  peak_rss_mb : float;
}

let probe () =
  {
    stages =
      List.map (fun (s : Trace.stage) -> (s.Trace.name, s.Trace.busy_s)) (Trace.stages ());
    memos = List.map (fun c -> (c, Trace.cache_stats c)) memo_caches;
    service_us =
      (match Metrics.histogram_summary "serve.request_us" with
      | Some h -> h.Metrics.sum
      | None -> 0.);
    gc = Measure.gc_now ();
    peak_rss_mb = Measure.peak_rss_mb ();
  }

let stage_delta ~before ~after name =
  let busy p = Option.value (List.assoc_opt name p.stages) ~default:0. in
  busy after -. busy before

type outcome = {
  attempted : int;
  failed : int;
  setup_s : float;
  region_s : float;  (** length of the timed region *)
  ops : int;  (** operations completed in it *)
  latency_us : float array;
      (** one sample per unit a user waits for: a batch, a request, a
          replay *)
  before : probe;
  after : probe;
  attributed_s : float;
      (** traced: the part of the region the layer accounting covers *)
  overhead_frac : float;  (** traced: calibration slice traced / untraced - 1 *)
}

(* [slice ()] measures itself; run it once to warm up, then untraced,
   then traced.  Spans stay on for the timed region; [reset_spans] drops
   the calibration's. *)
let calibrate slice =
  ignore (slice ());
  let off = slice () in
  Span.set_enabled true;
  let on = slice () in
  (on /. off) -. 1.

let reset_spans traced = if traced then Span.set_enabled true

(* A fresh process that runs only this workload's set-up ([setup]
   below, through main.exe --setup-in DIR) and exits; its wall time. *)
let setup_process ~name ~seed dir =
  Measure.spawn_time [ "--workload"; name; "--seed"; string_of_int seed; "--setup-in"; dir ]

(* setup_s: the median over [k] such processes, so process start and
   module initialisation count as set-up too *)
let cold_starts ~k ~name ~seed dir =
  Measure.median (List.init k (fun _ -> setup_process ~name ~seed (dir ())))

(* Set-ups that take a few milliseconds of process start are timed over
   this many processes, so that their median is steady. *)
let quick_starts = 21

(* Run [batch], which returns the seconds it timed, at least once and
   again while another as long as the last one still fits in [seconds].
   Every batch does the same work, so runs of any length compare. *)
let whole_batches ~seconds batch =
  let rec go region =
    let last = batch () in
    let region = region +. last in
    if region +. last <= seconds then go region else region
  in
  go 0.

(* ------------------------------------------------------------------ *)
(* repro-quick: the 18-artefact reproduction on the quick context       *)

let run_experiment ctx e = snd (List.hd (Experiments.run_many_result ctx [ e ]))

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let repro ~seed ~seconds ~traced =
  let setup_s = cold_starts ~k:quick_starts ~name:"repro-quick" ~seed (fun () -> ".") in
  let ctx = quick_ctx seed in
  let overhead_frac =
    if not traced then Float.nan
    else
      let schemes = Option.get (Experiments.find "schemes") in
      calibrate (fun () ->
          clear_memos ();
          snd (Measure.time (fun () -> run_experiment ctx schemes)))
  in
  reset_spans traced;
  let lat = Measure.samples ~seconds and csv = Hashtbl.create 32 and failed = ref 0 in
  let before = probe () in
  (* each batch starts from empty memo tables, like a fresh process *)
  let region_s =
    whole_batches ~seconds (fun () ->
        let first = Measure.count lat = 0 in
        clear_memos ();
        let (), dt =
          Measure.time (fun () ->
              List.iter
                (fun (e : Experiments.t) ->
                  match run_experiment ctx e with
                  | Ok artefacts ->
                    if first then
                      Hashtbl.replace csv e.Experiments.id (Core.Report.render_csv artefacts)
                  | Error _ -> incr failed)
                Experiments.all)
        in
        Measure.add lat (dt *. 1e6);
        dt)
  in
  let after = probe () in
  let attributed_s =
    List.fold_left
      (fun acc (s : Span.span) ->
        if String.starts_with ~prefix:"experiment:" s.Span.name then
          acc +. (s.Span.dur_us /. 1e6)
        else acc)
      0. (Span.spans ())
  in
  (* each golden case re-rendered from the warm memo tables must equal
     the cold batch's artefact, and at the default seed the committed
     snapshot as well *)
  let default_seed = Int64.to_int Registry.default_seed in
  List.iter
    (fun (case : Golden.case) ->
      let warm = case.Golden.render ctx in
      let ok =
        Hashtbl.find_opt csv case.Golden.id = Some warm
        && (seed <> default_seed
           || read_file (Golden.path ~dir:"test/golden" case) = Some warm)
      in
      if not ok then incr failed)
    Golden.cases;
  let batches = Measure.count lat in
  {
    attempted = (List.length Experiments.all * batches) + List.length Golden.cases;
    failed = !failed;
    setup_s;
    region_s;
    ops = List.length Experiments.all * batches;
    latency_us = Measure.to_array lat;
    before;
    after;
    attributed_s;
    overhead_frac;
  }

(* ------------------------------------------------------------------ *)
(* serve-cold: first-time optimize queries against an empty store      *)

let is_error response =
  match Json.parse response with
  | Ok j -> Json.member "error" j <> None
  | Error _ -> true

(* 128 distinct caches; the seed picks the order, scheme and budget *)
let cold_lines ~seed =
  let rng = Rng.create ~seed:(Int64.of_int seed) in
  let ( let* ) l f = List.concat_map f l in
  let configs =
    Array.of_list
      (let* size = [ 4; 8; 16; 32; 64; 128; 256; 512 ] in
       let* assoc = [ 1; 2; 4; 8 ] in
       let* block = [ 32; 64 ] in
       let* out = [ 32; 64 ] in
       [ (size, assoc, block, out) ])
  in
  Rng.shuffle rng configs;
  Array.mapi
    (fun i (size, assoc, block, out) ->
      let scheme = [| "I"; "II"; "III" |].(Rng.int rng ~bound:3) in
      let budget = [| 1500; 2500; 4000 |].(Rng.int rng ~bound:3) in
      Printf.sprintf
        {|{"id":%d,"op":"optimize","scheme":"%s","size_kb":%d,"assoc":%d,"block_bytes":%d,"output_bits":%d,"delay_budget_ps":%d}|}
        i scheme size assoc block out budget)
    configs

(* [lines] answered in order by a Service over the store in [dir],
   without a server in between *)
let answer ~ctx ~dir lines =
  let store = Store.open_ ~dir in
  let service = Service.create ~store ~ctx ~queue:64 ~jobs:1 () in
  let answers =
    List.map
      (fun line ->
        let response, settle = Service.handle_line service line in
        settle ();
        response)
      lines
  in
  Store.close store;
  answers

(* Replay a pass against its store reopened from disk, with the memo
   tables dropped: the number of requests that got an error or whose
   replayed response differs by a byte. *)
let cold_failures ~ctx ~dir answered =
  clear_memos ();
  let again = answer ~ctx ~dir (List.map fst answered) in
  List.fold_left2
    (fun bad (_, response) again ->
      if is_error response || again <> response then bad + 1 else bad)
    0 answered again

let serve_cold ~seed ~seconds ~traced =
  let ctx = quick_ctx seed in
  let lines = cold_lines ~seed in
  let open_session () =
    let dir = Measure.fresh_dir "cold" in
    (dir, Session.start ~ctx ~dir)
  in
  let setup_s =
    cold_starts ~k:quick_starts ~name:"serve-cold" ~seed (fun () -> Measure.fresh_dir "cold")
  in
  let overhead_frac =
    if not traced then Float.nan
    else begin
      let slice () =
        clear_memos ();
        let _, s = open_session () in
        let (), dt =
          Measure.time (fun () ->
              Array.iter (fun l -> ignore (Session.request s l)) (Array.sub lines 0 6))
        in
        Session.stop s;
        dt
      in
      calibrate slice
    end
  in
  reset_spans traced;
  let lat = Measure.samples ~seconds and passes = ref [] in
  let before = probe () in
  (* whole passes over the 128 caches, each against a fresh empty store
     with empty memo tables; the server starts and stops untimed *)
  let region_s =
    whole_batches ~seconds (fun () ->
        clear_memos ();
        let dir, session = open_session () in
        let answered, dt =
          Measure.time (fun () ->
              Array.map
                (fun line ->
                  let response, dt = Measure.time (fun () -> Session.request session line) in
                  Measure.add lat (dt *. 1e6);
                  (line, response))
                lines)
        in
        Session.stop session;
        passes := (dir, Array.to_list answered) :: !passes;
        dt)
  in
  let after = probe () in
  let failed =
    List.fold_left (fun bad (dir, answered) -> bad + cold_failures ~ctx ~dir answered) 0 !passes
  in
  let attributed_s =
    List.fold_left
      (fun acc (name, _) ->
        if name = "context.characterize+fit" || String.starts_with ~prefix:"scheme." name
        then acc +. stage_delta ~before ~after name
        else acc)
      0. after.stages
  in
  {
    attempted = Measure.count lat;
    failed;
    setup_s;
    region_s;
    ops = Measure.count lat;
    latency_us = Measure.to_array lat;
    before;
    after;
    attributed_s;
    overhead_frac;
  }

(* ------------------------------------------------------------------ *)
(* serve-warm: repeat queries against a restarted server's store       *)

(* The 40 keys, indexed by Zipf rank: 12 caches x 3 schemes of
   optimize and 4 miss_curve queries, in an order the seed shuffles.
   No trace of real serve traffic backs this mix; see README.md. *)
let warm_lines ~seed =
  let ( let* ) l f = List.concat_map f l in
  let keys =
    Array.of_list
      ((let* size = [ 8; 32; 128; 512 ] in
        let* assoc = [ 2; 4; 8 ] in
        let* scheme = [ "I"; "II"; "III" ] in
        [
          Printf.sprintf
            {|"op":"optimize","scheme":"%s","size_kb":%d,"assoc":%d,"delay_budget_ps":2500|}
            scheme size assoc;
        ])
      @ List.map
          (Printf.sprintf
             {|"op":"miss_curve","workload":"%s","l1_kb":16,"l2_kb":[256,512,1024,2048],"n":100000|})
          [ "spec2000-mix"; "specweb"; "tpcc"; "spec2000-gcc" ])
  in
  Rng.shuffle (Rng.create ~seed:(Int64.of_int seed)) keys;
  Array.mapi (fun r body -> Printf.sprintf {|{"id":%d,%s}|} r body) keys

let warm_requests session ~lines ~rng ~until f =
  let zipf = Zipf.create ~n:(Array.length lines) ~s:1.0 in
  let n = ref 0 in
  while not (until !n) do
    let k = Zipf.sample zipf rng in
    let response, dt = Measure.time (fun () -> Session.request session lines.(k)) in
    f k response dt;
    incr n
  done

let cold_answers dir = Filename.concat dir "cold.ndjson"

(* What a previous server process leaves in [dir]: the store after one
   cold pass over the keys, and that pass's answers, one per line. *)
let warm_fixture ~ctx ~dir lines =
  if not (Sys.file_exists (cold_answers dir)) then begin
    let answers = answer ~ctx ~dir (Array.to_list lines) in
    Out_channel.with_open_bin (cold_answers dir) (fun oc ->
        List.iter (fun a -> output_string oc (a ^ "\n")) answers)
  end

let serve_warm ~seed ~seconds ~traced =
  let ctx = quick_ctx seed in
  let lines = warm_lines ~seed in
  let dir = Measure.fresh_dir "warm" in
  (* the first set-up process also plays the previous server's life *)
  ignore (setup_process ~name:"serve-warm" ~seed dir);
  let setup_s = cold_starts ~k:quick_starts ~name:"serve-warm" ~seed (fun () -> dir) in
  let cold = Array.of_list (In_channel.with_open_bin (cold_answers dir) In_channel.input_lines) in
  let cold_error = Array.map is_error cold in
  if Array.length cold <> Array.length lines then failwith "serve-warm: cold answers missing";
  let session = Session.start ~ctx ~dir in
  let session, overhead_frac =
    if not traced then (session, Float.nan)
    else begin
      let rng = Rng.create ~seed:(Int64.of_int (seed + 1)) in
      let slice () =
        snd
          (Measure.time (fun () ->
               warm_requests session ~lines ~rng ~until:(fun n -> n = 20_000) (fun _ _ _ -> ())))
      in
      let frac = calibrate slice in
      Session.stop session;
      (Session.start ~ctx ~dir, frac)
    end
  in
  reset_spans traced;
  let lat = Measure.samples ~seconds and failed = ref 0 in
  let rng = Rng.split (Rng.create ~seed:(Int64.of_int seed)) in
  let before = probe () in
  let t0 = Measure.now () in
  warm_requests session ~lines ~rng
    ~until:(fun _ -> Measure.since t0 >= seconds)
    (fun k response dt ->
      Measure.add lat (dt *. 1e6);
      if cold_error.(k) || response <> cold.(k) then incr failed);
  let region_s = Measure.since t0 in
  let after = probe () in
  Session.stop session;
  {
    attempted = Measure.count lat;
    failed = !failed;
    setup_s;
    region_s;
    ops = Measure.count lat;
    latency_us = Measure.to_array lat;
    before;
    after;
    attributed_s = (after.service_us -. before.service_us) /. 1e6;
    overhead_frac;
  }

(* ------------------------------------------------------------------ *)
(* stream-replay: simulate a recorded PPTRC01 trace                     *)

let stream_accesses = 4_000_000

let record ~seed ~path ~n =
  let gen = Registry.build ~seed:(Int64.of_int seed) "spec2000-mix" in
  Stream_trace.write_file ~path ~name:"spec2000-mix" ~n
    ~next:(fun () ->
      let a = Gen.next gen in
      { Nmcache_cachesim.Trace.addr = a.Access.addr; write = a.Access.write })
    ()

(* the trace-file user path: no warmup on a recorded trace *)
let simulate stream =
  Missrate.simulate_stream ~warmup:false ~stream ~l1_size:(16 * 1024)
    ~l2_size:(1024 * 1024) ()

let replay ?chunk_size path = simulate (Stream_trace.of_file ?chunk_size path)

let trace_path dir = Filename.concat dir "replay.pptrc"

let stream_replay ~seed ~seconds ~traced =
  let dir = Measure.fresh_dir "stream" in
  (* the set-up processes leave the recorded trace behind *)
  let setup_s = cold_starts ~k:5 ~name:"stream-replay" ~seed (fun () -> dir) in
  let path = trace_path dir in
  let overhead_frac =
    if traced then calibrate (fun () -> snd (Measure.time (fun () -> replay path)))
    else Float.nan
  in
  reset_spans traced;
  let lat = Measure.samples ~seconds and points = ref [] in
  let before = probe () in
  let t0 = Measure.now () in
  while Measure.since t0 < seconds do
    let p, dt = Measure.time (fun () -> replay path) in
    Measure.add lat (dt *. 1e6);
    points := p :: !points
  done;
  let region_s = Measure.since t0 in
  let after = probe () in
  (* every replay decodes the whole file and agrees with the first, and
     so does a replay at a 1024-entry chunk grain *)
  let reference = List.hd (List.rev !points) in
  let info = Stream_trace.file_info path in
  let complete = info.Stream_trace.fi_entries = stream_accesses in
  let failed =
    List.length (List.filter (fun p -> p <> reference || not complete) !points)
    + if replay ~chunk_size:1024 path = reference then 0 else 1
  in
  let replays = Measure.count lat in
  {
    attempted = replays + 1;
    failed;
    setup_s;
    region_s;
    ops = replays * stream_accesses;
    latency_us = Measure.to_array lat;
    before;
    after;
    attributed_s = Measure.sum lat /. 1e6;
    overhead_frac;
  }

(* the set-up alone, in a fresh process: what setup_s times *)
let setup name ~seed ~dir =
  let ctx = quick_ctx seed in
  match name with
  (* a batch needs nothing before its first experiment but the context *)
  | "repro-quick" -> ignore (Sys.opaque_identity ctx)
  | "serve-cold" -> Session.stop (Session.start ~ctx ~dir)
  | "serve-warm" ->
    warm_fixture ~ctx ~dir (warm_lines ~seed);
    Session.stop (Session.start ~ctx ~dir)
  | "stream-replay" -> record ~seed ~path:(trace_path dir) ~n:stream_accesses
  | other -> invalid_arg ("unknown workload " ^ other)

let run name =
  match name with
  | "repro-quick" -> repro
  | "serve-cold" -> serve_cold
  | "serve-warm" -> serve_warm
  | "stream-replay" -> stream_replay
  | other -> invalid_arg ("unknown workload " ^ other)
