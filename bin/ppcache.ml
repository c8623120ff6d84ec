(* ppcache — CLI for the DATE'05 power-performance cache study.

   Subcommands: run (any experiment by id), list, characterize (fit the
   compact models of one cache and print them), simulate (miss rates of
   one workload on one hierarchy), verify (differential oracles, paper
   anchors and golden snapshot gates), workloads. *)

module Units = Nmcache_physics.Units
module Config = Nmcache_geometry.Config
module Cache_model = Nmcache_geometry.Cache_model
module Component = Nmcache_geometry.Component
module Fitted_cache = Nmcache_fit.Fitted_cache
module Model = Nmcache_fit.Model
module Missrate = Nmcache_workload.Missrate
module Registry = Nmcache_workload.Registry
module Gen = Nmcache_workload.Gen
module Access = Nmcache_workload.Access
module Wstream = Nmcache_workload.Stream
module Trace_rec = Nmcache_cachesim.Trace
module Stream_trace = Nmcache_cachesim.Stream_trace
module Cache = Nmcache_cachesim.Cache
module Hierarchy = Nmcache_cachesim.Hierarchy
module Replacement = Nmcache_cachesim.Replacement

open Cmdliner

let quick_arg =
  let doc = "Use the reduced context (shorter traces, coarser grids)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let jobs_arg =
  let doc =
    "Evaluate independent kernels on $(docv) domains.  Output is \
     byte-identical to --jobs 1; 0 means one domain per core."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let trace_arg =
  let doc = "Print the engine trace summary (per-stage wall time, task counts, memo hit rates) after the run." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let trace_json_arg =
  let doc =
    "Write the span tree as Chrome trace_event JSON to $(docv) — open it in \
     Perfetto (ui.perfetto.dev) or chrome://tracing to inspect per-domain \
     parallel execution."
  in
  Arg.(value & opt (some string) None & info [ "trace-json" ] ~docv:"FILE" ~doc)

let metrics_json_arg =
  let doc =
    "Write the metrics registry (counters, gauges, histogram quantiles), \
     per-stage trace table and memo hit rates as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE" ~doc)

let faults_json_arg =
  let doc =
    "Write the typed fault log (kind, stage, detail per fault, in canonical \
     order) as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "faults-json" ] ~docv:"FILE" ~doc)

let metrics_prom_arg =
  let doc =
    "Write the metrics registry in the OpenMetrics/Prometheus text exposition \
     format to $(docv) — counters as ppcache_counter_total, gauges as \
     ppcache_gauge, histograms as quantile summaries, each keyed by a name \
     label."
  in
  Arg.(value & opt (some string) None & info [ "metrics-prom" ] ~docv:"FILE" ~doc)

let events_arg =
  let doc =
    "Stream typed progress events (sweep_started, slot_done, \
     checkpoint_replayed, experiment_done) as append-only NDJSON to $(docv).  \
     Lines carry sequence numbers; stdout stays byte-identical at any \
     $(b,--jobs)."
  in
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc =
    "Print human-readable progress lines to stderr as sweep slots complete.  \
     Never touches stdout, so piped output stays byte-identical."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let fail_fast_arg =
  let doc =
    "Abort on the first experiment fault instead of completing the remaining \
     experiments and reporting per-experiment status."
  in
  Arg.(value & flag & info [ "fail-fast" ] ~doc)

let checkpoint_arg =
  let doc =
    "Journal completed sweep slots to $(docv)/store.ppck (append-only, \
     CRC-guarded) so an interrupted run can be resumed with $(b,--resume).  \
     Keyed kernels (experiments, miss-rate curves and sweeps) are journaled; \
     a crash costs at most the record being written."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR" ~doc)

let resume_arg =
  let doc =
    "Replay the $(b,--checkpoint) journal before running: completed slots are \
     served from disk instead of recomputed, corrupt tails are truncated and \
     recomputed, and the output stays byte-identical to an uninterrupted run \
     at any $(b,--jobs)."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let retries_arg =
  let doc =
    "Attempt budget for transient faults (injected, fit_diverged) at the \
     fit/anneal/simulate retry boundaries, with deterministic seeded \
     exponential backoff; $(b,1) disables retries."
  in
  Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Cooperative per-kernel budget in seconds: a kernel that overruns it \
     (observed at the fit / annealer / cachesim poll points) becomes a typed \
     $(b,timed_out) fault in its own slot instead of a hung run.  0 fires on \
     the first poll."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let set_resilience ~retries ~deadline =
  if retries < 1 then begin
    Printf.eprintf "ppcache: --retries must be >= 1\n";
    exit 2
  end;
  Nmcache_engine.Retry.set_max_attempts retries;
  match deadline with
  | Some d when d < 0.0 ->
    Printf.eprintf "ppcache: --deadline must be >= 0\n";
    exit 2
  | d -> Nmcache_engine.Deadline.set_default d

(* The journal directory behind --checkpoint, --store and `store DIR`:
   open its store ([fresh]: start it over), run [f], close it.  A
   directory that cannot hold a journal, or one held by a live writer,
   is a usage error (exit 2).  With [summary] the replay counts go to
   stderr on the way out — stdout is byte-compared against
   uninterrupted runs — and the store is closed before any exit-code
   decision runs (exit does not unwind Fun.protect). *)
let with_journal_dir ?(fresh = false) ?summary ~flag dir f =
  let module S = Nmcache_engine.Store in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "ppcache: %s %s%s\n" flag dir msg;
        exit 2)
      fmt
  in
  let s =
    try if fresh then S.open_fresh ~dir else S.open_ ~dir with
    | Nmcache_engine.Lockfile.Locked { path; pid } ->
      fail
        " is locked by running pid %d (%s); two writers on one journal would \
         interleave records"
        pid path
    | Unix.Unix_error (e, _, _) -> fail ": %s" (Unix.error_message e)
    | Sys_error msg -> fail ": %s" msg
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun label ->
          Printf.eprintf "ppcache: %s %s: %d replayed, %d served, %d appended%s\n%!"
            label (S.path s) (S.replayed s) (S.served s) (S.appended s)
            (if S.dropped_tail s then " (corrupt tail dropped)" else ""))
        summary;
      S.close s)
    (fun () -> f s)

(* Arm the checkpoint journal around a command body; without --resume
   an existing journal is discarded. *)
let with_checkpoint ~checkpoint ~resume f =
  match (checkpoint, resume) with
  | None, true ->
    Printf.eprintf "ppcache: --resume requires --checkpoint DIR\n";
    exit 2
  | None, false -> f ()
  | Some dir, resume ->
    with_journal_dir ~fresh:(not resume) ~summary:"checkpoint" ~flag:"--checkpoint"
      dir (fun s ->
        Nmcache_engine.Sweep.set_journal (Some s);
        Fun.protect ~finally:(fun () -> Nmcache_engine.Sweep.set_journal None) f)

(* Usage-error boundary: bad geometry/arguments surface as
   Invalid_argument from the constructors — render the message with a
   usage hint and exit 2, like every other bad-argument path. *)
let usage_guard f =
  try f ()
  with Invalid_argument msg ->
    Printf.eprintf "ppcache: %s\nppcache: exiting 2 (usage); see --help\n" msg;
    exit 2

(* Report-file arguments must be plainly writable before the run
   starts: an empty path, a missing parent directory or an existing
   directory at the target is a usage error (exit 2), not a crash
   after minutes of sweeping. *)
let validate_out_path ~flag path =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "ppcache: --%s: %s\n" flag msg;
        exit 2)
      fmt
  in
  if path = "" then fail "path is empty";
  if path.[String.length path - 1] = '/' then fail "%S is a directory path" path;
  (try if Sys.is_directory path then fail "%S is a directory" path
   with Sys_error _ -> ());
  let dir = Filename.dirname path in
  if not (try Sys.is_directory dir with Sys_error _ -> false) then
    fail "parent directory %S does not exist" dir

(* Observability wrapper shared by the subcommands: span collection is
   enabled only when a trace file was requested (spans carry
   timestamps, so they stay out of the byte-compared experiment
   output); report files are written even if the command fails partway,
   so a crashed run still leaves its trace behind.  Event sinks are
   armed before the body runs — and before any checkpoint journal
   opens, so a resume's checkpoint_replayed event is captured. *)
let with_observability ?(faults_json = None) ?(metrics_prom = None) ?(events = None)
    ?(progress = false) ~trace ~trace_json ~metrics_json f =
  Option.iter (fun path -> validate_out_path ~flag:"events" path) events;
  Option.iter (fun path -> validate_out_path ~flag:"metrics-prom" path) metrics_prom;
  Option.iter (fun path -> Nmcache_engine.Events.set_file path) events;
  if progress then Nmcache_engine.Events.set_progress true;
  if trace_json <> None then Nmcache_engine.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      if trace then print_string (Nmcache_engine.Trace.summary ());
      Option.iter (fun path -> Nmcache_engine.Obs.write_trace ~path) trace_json;
      Option.iter (fun path -> Nmcache_engine.Obs.write_metrics ~path) metrics_json;
      Option.iter (fun path -> Nmcache_engine.Obs.write_faults ~path) faults_json;
      Option.iter (fun path -> Nmcache_engine.Obs.write_openmetrics ~path) metrics_prom;
      Nmcache_engine.Events.close ())
    f

let context quick = if quick then Core.Context.quick () else Core.Context.default ()

let set_jobs jobs =
  let jobs =
    if jobs = 0 then Nmcache_engine.Executor.default_jobs ()
    else if jobs < 0 then begin
      Printf.eprintf "ppcache: --jobs must be >= 0\n";
      exit 2
    end
    else jobs
  in
  Nmcache_engine.Executor.set_jobs jobs

(* --- run ------------------------------------------------------------ *)

let print_heading (e : Core.Experiments.t) =
  Printf.printf "### %s — %s (%s)\n\n" e.Core.Experiments.id e.Core.Experiments.title
    e.Core.Experiments.paper_ref

let run_experiment ids quick csv jobs fail_fast checkpoint resume retries deadline
    trace trace_json metrics_json faults_json metrics_prom events progress =
  set_jobs jobs;
  set_resilience ~retries ~deadline;
  let ctx = context quick in
  let targets =
    match ids with
    | [] | [ "all" ] -> Core.Experiments.all
    | ids ->
      List.map
        (fun id ->
          match Core.Experiments.find id with
          | Some e -> e
          | None ->
            Printf.eprintf "unknown experiment %S; try `ppcache list`\n" id;
            exit 2)
        ids
  in
  let faulted = ref 0 in
  let aborted = ref None in
  (* observability outside the checkpoint: event sinks must be armed
     before the journal replays so checkpoint_replayed is captured *)
  with_observability ~faults_json ~metrics_prom ~events ~progress ~trace ~trace_json
    ~metrics_json (fun () ->
  with_checkpoint ~checkpoint ~resume (fun () ->
      (* kernels run (possibly in parallel) first; output prints in
         registry order afterwards, so the bytes never depend on
         --jobs.  Fault-injection decisions are key-deterministic, so
         that holds for faulted runs too. *)
      match
        if fail_fast then
          List.map (fun (e, a) -> (e, Ok a)) (Core.Experiments.run_many ctx targets)
        else Core.Experiments.run_many_result ctx targets
      with
      | exception Nmcache_engine.Fault.Fault f when fail_fast ->
        (* caught inside the observability wrapper so the report files
           still record the aborted run *)
        aborted := Some f
      | results ->
      List.iter
        (fun ((e : Core.Experiments.t), status) ->
          match status with
          | Ok artefacts ->
            if csv then print_string (Core.Report.render_csv artefacts)
            else begin
              print_heading e;
              Core.Report.print artefacts
            end
          | Error fault ->
            incr faulted;
            let line = Nmcache_engine.Fault.to_string fault in
            if csv then Printf.printf "# FAULT %s: %s\n" e.Core.Experiments.id line
            else begin
              print_heading e;
              Printf.printf "FAULT %s\n\n" line
            end)
        results));
  (match !aborted with
  | Some f ->
    Printf.eprintf "ppcache: aborted on FAULT %s\n" (Nmcache_engine.Fault.to_string f);
    exit 1
  | None -> ());
  if !faulted > 0 then begin
    Printf.eprintf "ppcache: %d of %d experiments faulted\n" !faulted
      (List.length targets);
    exit 1
  end

let run_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"Experiment ids (or `all').")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of formatted tables.")
  in
  let doc =
    "Run one or more experiments and print their tables/series.  A faulting \
     experiment is reported in place (and in the --faults-json report) while \
     the rest complete; the exit status is 1 if anything faulted.  Set \
     $(b,PPCACHE_FAULTS) to inject deterministic faults."
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_experiment $ ids $ quick_arg $ csv $ jobs_arg $ fail_fast_arg
      $ checkpoint_arg $ resume_arg $ retries_arg $ deadline_arg
      $ trace_arg $ trace_json_arg $ metrics_json_arg $ faults_json_arg
      $ metrics_prom_arg $ events_arg $ progress_arg)

(* --- list ------------------------------------------------------------ *)

let list_experiments () =
  List.iter
    (fun (e : Core.Experiments.t) ->
      Printf.printf "%-16s %-12s %s\n" e.Core.Experiments.id
        ("[" ^ e.Core.Experiments.paper_ref ^ "]")
        e.Core.Experiments.title)
    Core.Experiments.all

let list_cmd =
  let doc = "List the available experiments." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const list_experiments $ const ())

(* --- characterize ---------------------------------------------------- *)

(* "LO:HI" -> (lo, hi); usage errors exit 2 with the expected shape *)
let parse_range ~what ~unit s =
  match String.split_on_char ':' s with
  | [ lo; hi ] -> (
    match (float_of_string_opt lo, float_of_string_opt hi) with
    | Some lo, Some hi -> (lo, hi)
    | _ ->
      Printf.eprintf "ppcache: --%s wants LO:HI in %s, got %S\n" what unit s;
      exit 2)
  | _ ->
    Printf.eprintf "ppcache: --%s wants LO:HI in %s, got %S\n" what unit s;
    exit 2

(* Characterisation bounds must stay inside the paper's knob grid —
   the compact models are only calibrated there, and a fit over
   garbage bounds would silently extrapolate device physics.  Exit 2
   (usage error), not a fault: the run never started. *)
let validate_knob_ranges (tech : Nmcache_device.Tech.t) ~vth ~tox =
  let check what unit lo hi t_lo t_hi =
    if hi <= lo then begin
      Printf.eprintf "ppcache: --%s range is empty (%g:%g)\n" what lo hi;
      exit 2
    end;
    if lo < t_lo || hi > t_hi then begin
      Printf.eprintf
        "ppcache: --%s %g:%g %s is outside the paper's %s grid (%g-%g %s); \
         the compact models are only calibrated there\n"
        what lo hi unit what t_lo t_hi unit;
      exit 2
    end
  in
  Option.iter (fun (lo, hi) -> check "vth" "V" lo hi tech.Nmcache_device.Tech.vth_min
                 tech.Nmcache_device.Tech.vth_max) vth;
  Option.iter
    (fun (lo, hi) ->
      check "tox" "A" lo hi
        (Units.to_angstrom tech.Nmcache_device.Tech.tox_min)
        (Units.to_angstrom tech.Nmcache_device.Tech.tox_max))
    tox

let require_positive what v =
  if v <= 0 then begin
    Printf.eprintf "ppcache: --%s must be > 0, got %d\n" what v;
    exit 2
  end

let characterize size_kb assoc block vth tox trace trace_json metrics_json =
  let tech = Nmcache_device.Tech.bptm65 in
  require_positive "size" size_kb;
  require_positive "assoc" assoc;
  require_positive "block" block;
  let vth = Option.map (parse_range ~what:"vth" ~unit:"volts") vth in
  let tox = Option.map (parse_range ~what:"tox" ~unit:"angstrom") tox in
  validate_knob_ranges tech ~vth ~tox;
  usage_guard @@ fun () ->
  with_observability ~trace ~trace_json ~metrics_json (fun () ->
      let config = Config.make ~size_bytes:(size_kb * 1024) ~assoc ~block_bytes:block () in
      let model = Cache_model.make tech config in
      let fitted =
        Nmcache_engine.Span.with_span "characterize" (fun () ->
            Fitted_cache.characterize_and_fit ?vth_range:vth
              ?tox_range:
                (Option.map
                   (fun (lo, hi) -> (Units.angstrom lo, Units.angstrom hi))
                   tox)
              model)
      in
      Format.printf "cache %a, %a@." Config.pp config Nmcache_geometry.Org.pp
        (Cache_model.org model);
      let w, h = Cache_model.floorplan model in
      Format.printf "floorplan %.0f x %.0f um@." (Units.to_um w) (Units.to_um h);
      List.iter
        (fun (cm : Fitted_cache.component_model) ->
          Format.printf "@.%s:@."
            (Component.kind_name cm.Fitted_cache.kind);
          Format.printf "  leakage: %a  [%a]@." Model.pp_leak cm.Fitted_cache.leak
            Model.pp_quality cm.Fitted_cache.leak_quality;
          Format.printf "  delay:   %a  [%a]@." Model.pp_delay cm.Fitted_cache.delay
            Model.pp_quality cm.Fitted_cache.delay_quality;
          Format.printf "  energy:  %a@." Model.pp_energy cm.Fitted_cache.energy)
        (Fitted_cache.components fitted))

let characterize_cmd =
  let size = Arg.(value & opt int 16 & info [ "size" ] ~docv:"KB" ~doc:"Capacity in KB.") in
  let assoc = Arg.(value & opt int 4 & info [ "assoc" ] ~doc:"Associativity.") in
  let block = Arg.(value & opt int 64 & info [ "block" ] ~doc:"Block size in bytes.") in
  let vth =
    Arg.(
      value
      & opt (some string) None
      & info [ "vth" ] ~docv:"LO:HI"
          ~doc:
            "Vth characterisation range in volts; must lie within the paper's \
             0.2-0.5 V grid.")
  in
  let tox =
    Arg.(
      value
      & opt (some string) None
      & info [ "tox" ] ~docv:"LO:HI"
          ~doc:
            "Tox characterisation range in angstrom; must lie within the paper's \
             10-14 A grid.")
  in
  let doc = "Characterise a cache over the knob grid and print the fitted compact models." in
  Cmd.v (Cmd.info "characterize" ~doc)
    Term.(
      const characterize $ size $ assoc $ block $ vth $ tox $ trace_arg
      $ trace_json_arg $ metrics_json_arg)

(* --- simulate --------------------------------------------------------- *)

let print_point ~header p =
  print_string header;
  Printf.printf "  L1 miss rate       %.3f%%\n" (100.0 *. p.Missrate.l1_miss);
  Printf.printf "  L2 local miss rate %.3f%%\n" (100.0 *. p.Missrate.l2_local);
  Printf.printf "  L2 global miss     %.3f%%\n" (100.0 *. p.Missrate.l2_global)

(* Simulate a recorded (or piped) trace: one streamed pass carries the
   hierarchy, the running statistics analyzer and the access count —
   a single traversal, because a pipe cannot be re-read.  When a
   checkpoint journal is armed and the source is a trace file, chunk
   boundaries are resumable slots.  Returns false for an empty trace:
   there is no defined miss rate, so the caller exits 2 (the exit runs
   outside the journal/report Fun.protect wrappers). *)
let simulate_trace_source ~source ~chunk ~l1_kb ~l2_kb =
  let s =
    match source with
    | `File path -> Stream_trace.of_file ~chunk_size:chunk path
    | `Stdin -> Stream_trace.of_ndjson_fd ~chunk_size:chunk ~name:"stdin" Unix.stdin
  in
  let l1_size = l1_kb * 1024 and l2_size = l2_kb * 1024 in
  let h =
    let l1 =
      Cache.create ~size_bytes:l1_size ~assoc:4 ~block_bytes:64
        ~policy:Replacement.Lru ()
    in
    let l2 =
      Cache.create ~size_bytes:l2_size ~assoc:8 ~block_bytes:64
        ~policy:Replacement.Lru ()
    in
    Hierarchy.create ~l1 ~l2
  in
  let salt = Printf.sprintf "simulate-trace:%d:%d" l1_size l2_size in
  let h, analyzer, count =
    Stream_trace.resumable_fold ~salt s ~init:(h, Trace_rec.analyzer (), 0)
      ~f:(fun (h, a, count) ~index:_ chunk ->
        for i = 0 to Array.length chunk - 1 do
          let addr = Stream_trace.addr chunk.(i)
          and write = Stream_trace.is_write chunk.(i) in
          Trace_rec.feed_analyzer a addr write;
          ignore (Hierarchy.access h addr ~write)
        done;
        (h, a, count + Array.length chunk))
  in
  if count = 0 then begin
    Printf.eprintf "ppcache: trace %s is empty (0 accesses); nothing to simulate\n"
      (Stream_trace.name s);
    false
  end
  else begin
    Printf.printf "trace %s (%d accesses, L1 %dKB, L2 %dKB):\n" (Stream_trace.name s)
      count l1_kb l2_kb;
    Format.printf "  %a@." Trace_rec.pp_stats (Trace_rec.analyzer_stats analyzer);
    print_point ~header:""
      {
        Missrate.l1_miss = Hierarchy.l1_miss_rate h;
        l2_local = Hierarchy.l2_local_miss_rate h;
        l2_global = Hierarchy.l2_global_miss_rate h;
      };
    true
  end

let simulate workload l1_kb l2_kb n stream chunk trace_file trace_stdin jobs
    checkpoint resume retries deadline trace trace_json metrics_json events progress =
  set_jobs jobs;
  set_resilience ~retries ~deadline;
  require_positive "l1" l1_kb;
  require_positive "l2" l2_kb;
  require_positive "chunk" chunk;
  if trace_file <> None && trace_stdin then begin
    Printf.eprintf "ppcache: --trace-file and --trace-stdin are mutually exclusive\n";
    exit 2
  end;
  let source =
    match (trace_file, trace_stdin) with
    | Some path, _ -> Some (`File path)
    | None, true -> Some `Stdin
    | None, false -> None
  in
  (match source with
  | None ->
    (* validate upfront so a typo'd name is a usage error with the menu
       of valid names, not a raw Invalid_argument from Registry.build *)
    if Registry.find workload = None then begin
      Printf.eprintf "unknown workload %S; available: %s\n" workload
        (String.concat ", " Registry.names);
      exit 2
    end;
    require_positive "n" n
  | Some _ -> ());
  let ok = ref true in
  usage_guard (fun () ->
      with_observability ~events ~progress ~trace ~trace_json ~metrics_json (fun () ->
          with_checkpoint ~checkpoint ~resume (fun () ->
              match source with
              | None ->
                (* the workload path: --stream must not change a byte of
                   the output (the stream gate diffs the two stdouts) *)
                let p =
                  Nmcache_engine.Span.with_span
                    ~attrs:[ ("workload", Nmcache_engine.Json.String workload) ]
                    "simulate"
                    (fun () ->
                      if stream then
                        Missrate.simulate_stream
                          ~stream:(Wstream.of_workload ~chunk_size:chunk ~workload ~n ())
                          ~l1_size:(l1_kb * 1024) ~l2_size:(l2_kb * 1024) ()
                      else
                        Missrate.simulate ~workload ~l1_size:(l1_kb * 1024)
                          ~l2_size:(l2_kb * 1024) ~n ())
                in
                print_point
                  ~header:
                    (Printf.sprintf "%s over %d accesses (L1 %dKB, L2 %dKB):\n"
                       workload n l1_kb l2_kb)
                  p
              | Some source ->
                ok := simulate_trace_source ~source ~chunk ~l1_kb ~l2_kb)));
  if not !ok then exit 2

let simulate_cmd =
  let workload =
    Arg.(value & opt string "spec2000-mix" & info [ "workload" ] ~doc:"Workload name.")
  in
  let l1 = Arg.(value & opt int 16 & info [ "l1" ] ~docv:"KB" ~doc:"L1 size in KB.") in
  let l2 = Arg.(value & opt int 1024 & info [ "l2" ] ~docv:"KB" ~doc:"L2 size in KB.") in
  let n = Arg.(value & opt int 2_000_000 & info [ "n"; "accesses" ] ~doc:"Trace length.") in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Simulate the workload through the chunked streaming engine (O(chunk) \
             memory) instead of generator iteration.  Output is byte-identical \
             either way; with $(b,--checkpoint), chunk boundaries become resume \
             points.")
  in
  let chunk =
    Arg.(
      value & opt int Stream_trace.default_chunk_size
      & info [ "chunk" ] ~docv:"N"
          ~doc:
            "Streaming chunk size in accesses (deadline polls, progress events \
             and checkpoint slots fire per chunk).  Never changes results.")
  in
  let trace_file =
    Arg.(
      value & opt (some string) None
      & info [ "trace-file" ] ~docv:"FILE"
          ~doc:
            "Simulate a recorded PPTRC01 trace (see $(b,ppcache trace record)) \
             instead of a generator workload; no warmup is applied and the trace \
             statistics are printed alongside the miss rates.  An empty trace \
             exits 2.")
  in
  let trace_stdin =
    Arg.(
      value & flag
      & info [ "trace-stdin" ]
          ~doc:
            "Read the trace as NDJSON lines ({\"addr\":N,\"write\":bool}) from \
             stdin through the bounded-memory reader.  Mutually exclusive with \
             $(b,--trace-file).")
  in
  let doc =
    "Simulate a workload (or a recorded/piped trace) through an L1+L2 hierarchy \
     and print miss rates.  Streamed and materialised paths are byte-identical; \
     with $(b,--checkpoint) a killed streamed run resumes byte-identically."
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const simulate $ workload $ l1 $ l2 $ n $ stream $ chunk $ trace_file
      $ trace_stdin $ jobs_arg $ checkpoint_arg $ resume_arg $ retries_arg
      $ deadline_arg $ trace_arg $ trace_json_arg $ metrics_json_arg $ events_arg
      $ progress_arg)

(* --- trace ------------------------------------------------------------- *)

let trace_record workload n out chunk seed from_ndjson =
  require_positive "chunk" chunk;
  validate_out_path ~flag:"out" out;
  if from_ndjson then begin
    (* external tracer → PPTRC01 converter: stdin NDJSON through the
       bounded line reader, spooled in O(chunk) memory (the recording's
       header needs the total, which a pipe only knows at EOF) *)
    usage_guard @@ fun () ->
    let stream =
      Stream_trace.of_ndjson_fd ~chunk_size:chunk ~name:workload Unix.stdin
    in
    let total = Stream_trace.record_stream ~path:out stream in
    Printf.printf "recorded stdin as %s: %d accesses to %s (chunk %d)\n"
      workload total out chunk
  end
  else begin
    if Registry.find workload = None then begin
      Printf.eprintf "unknown workload %S; available: %s\n" workload
        (String.concat ", " Registry.names);
      exit 2
    end;
    if n < 0 then begin
      Printf.eprintf "ppcache: --n must be >= 0, got %d\n" n;
      exit 2
    end;
    usage_guard @@ fun () ->
    let gen = Registry.build ~seed workload in
    Stream_trace.write_file ~path:out ~name:workload ~chunk_size:chunk
      ~next:(fun () ->
        let a = Gen.next gen in
        { Trace_rec.addr = a.Access.addr; write = a.Access.write })
      ~n ();
    Printf.printf "recorded %s: %d accesses to %s (chunk %d)\n" workload n out
      chunk
  end

let trace_info file =
  usage_guard @@ fun () ->
  let info =
    try Stream_trace.file_info file
    with Sys_error msg ->
      Printf.eprintf "ppcache: %s\n" msg;
      exit 2
  in
  Printf.printf "%s: workload %s, %d/%d accesses in %d chunks (on-disk chunk %d)%s\n"
    file info.Stream_trace.fi_name info.Stream_trace.fi_entries
    info.Stream_trace.fi_total info.Stream_trace.fi_chunks
    info.Stream_trace.fi_chunk_size
    (if info.Stream_trace.fi_dropped_tail then ", corrupt tail dropped" else "");
  let stats = Stream_trace.analyze (Stream_trace.of_file file) in
  if stats.Trace_rec.accesses = 0 then print_endline "  empty trace"
  else Format.printf "  %a@." Trace_rec.pp_stats stats

let trace_record_cmd =
  let workload =
    Arg.(value & opt string "spec2000-mix" & info [ "workload" ] ~doc:"Workload name.")
  in
  let n =
    Arg.(value & opt int 2_000_000 & info [ "n"; "accesses" ] ~doc:"Trace length.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output trace file (PPTRC01).")
  in
  let chunk =
    Arg.(
      value & opt int Stream_trace.default_chunk_size
      & info [ "chunk" ] ~docv:"N" ~doc:"On-disk chunk size in accesses.")
  in
  let seed =
    Arg.(
      value & opt int64 Registry.default_seed
      & info [ "seed" ] ~doc:"Generator seed.")
  in
  let from_ndjson =
    Arg.(
      value & flag
      & info [ "from-ndjson" ]
          ~doc:
            "Convert a piped NDJSON access stream (one \
             {\"addr\":N,\"write\":bool} object per line on stdin, read \
             through the bounded-memory line reader) into the recording, in \
             O(chunk) memory.  --workload then only names the recording; \
             --n and --seed are ignored.  A malformed or overlong line \
             exits 2.")
  in
  let doc =
    "Record a workload — or, with $(b,--from-ndjson), a piped external trace \
     — to a compressed PPTRC01 trace file (delta-encoded, CRC-guarded per \
     chunk) in O(chunk) memory, for later $(b,ppcache simulate --trace-file) \
     replay."
  in
  Cmd.v (Cmd.info "record" ~doc)
    Term.(const trace_record $ workload $ n $ out $ chunk $ seed $ from_ndjson)

let trace_info_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Trace file.")
  in
  let doc =
    "Validate and summarise a PPTRC01 trace file: header, CRC + decode scan of \
     every chunk (a torn tail is reported, a foreign file exits 2), and \
     streamed trace statistics."
  in
  Cmd.v (Cmd.info "info" ~doc) Term.(const trace_info $ file)

let trace_cmd =
  let doc = "Record and inspect compressed PPTRC01 trace files." in
  Cmd.group (Cmd.info "trace" ~doc) [ trace_record_cmd; trace_info_cmd ]

(* --- verify ----------------------------------------------------------- *)

module Verify = Nmcache_verify

(* Section selection: positional names; no positionals means the
   always-on gates (oracles + anchors); golden is opt-in because it
   reads snapshots from the working tree, chaos because it spawns
   child processes. *)
let verify_sections = [ "oracles"; "anchors"; "golden"; "chaos" ]

let verify sections quick golden_dir update_golden report_json seeds jobs checkpoint
    resume retries deadline trace trace_json metrics_json faults_json metrics_prom
    events progress =
  set_jobs jobs;
  set_resilience ~retries ~deadline;
  if seeds < 1 then begin
    Printf.eprintf "ppcache: --seeds must be >= 1, got %d\n" seeds;
    exit 2
  end;
  List.iter
    (fun s ->
      if not (List.mem s verify_sections) then begin
        Printf.eprintf "ppcache: unknown verify section %S; available: %s\n" s
          (String.concat ", " verify_sections);
        exit 2
      end)
    sections;
  let selected = match sections with [] -> [ "oracles"; "anchors" ] | s -> s in
  let on = List.mem in
  let ctx = context quick in
  let checks = ref [] in
  with_observability ~faults_json ~metrics_prom ~events ~progress ~trace ~trace_json
    ~metrics_json (fun () ->
  with_checkpoint ~checkpoint ~resume (fun () ->
      (* a crashed section settles as one CRASH check via the group
         fault boundary, so later sections still run and the report
         stays complete *)
      if on "oracles" selected then checks := !checks @ Verify.Oracles.all ctx;
      if on "anchors" selected then checks := !checks @ Verify.Anchors.all ctx;
      if on "golden" selected then
        checks :=
          !checks
          @ Verify.Golden.run ~update:update_golden ~dir:golden_dir
              (Core.Context.quick ()) ();
      if on "chaos" selected then
        checks := !checks @ Verify.Chaos.campaign ~seeds ctx;
      print_string (Verify.Check.render !checks);
      Option.iter
        (fun path ->
          let report =
            Nmcache_engine.Obs.verify_report ~checks:(Verify.Check.to_json !checks)
          in
          Nmcache_engine.Obs.write_text ~path
            (Nmcache_engine.Json.to_string report ^ "\n"))
        report_json));
  if not (Verify.Check.all_passed !checks) then exit 1

let verify_cmd =
  let sections =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SECTION"
          ~doc:
            "Sections to run: $(b,oracles) (differential oracles), $(b,anchors) \
             (paper-anchor checks), $(b,golden) (snapshot byte-diffs), \
             $(b,chaos) (seeded fault-injection campaign: SIGKILL children, torn \
             stores, poisoned requests, concurrent clients).  Default: oracles \
             anchors.")
  in
  let seeds =
    Arg.(
      value & opt int 10
      & info [ "seeds" ] ~docv:"N"
          ~doc:
            "Chaos-campaign seeds to run (section $(b,chaos) only).  Seed $(i,s) \
             drives scenario family $(i,s) mod 5; every scenario parameter \
             derives from the seed, so a campaign is byte-identical across runs \
             and at any $(b,--jobs).")
  in
  let golden_dir =
    Arg.(
      value
      & opt string "test/golden"
      & info [ "golden-dir" ] ~docv:"DIR" ~doc:"Directory holding golden snapshots.")
  in
  let update_golden =
    Arg.(
      value & flag
      & info [ "update-golden" ]
          ~doc:
            "Regenerate the golden snapshots instead of diffing them.  Commit the \
             rewritten files together with the change that moved the numbers.")
  in
  let report_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "report-json" ] ~docv:"FILE"
          ~doc:"Write the full check list (and fault log) as JSON to $(docv).")
  in
  let doc =
    "Run the verification gates: differential oracles (brute-force references vs \
     the production optimisers, Mattson curves vs direct simulation, compact \
     models vs their training samples), executable paper anchors, and golden \
     snapshot byte-diffs.  Golden checks always use the quick context so \
     snapshots are fast and deterministic.  Exit status 1 on any failed or \
     crashed check."
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      const verify $ sections $ quick_arg $ golden_dir $ update_golden $ report_json
      $ seeds $ jobs_arg $ checkpoint_arg $ resume_arg $ retries_arg $ deadline_arg
      $ trace_arg $ trace_json_arg $ metrics_json_arg $ faults_json_arg
      $ metrics_prom_arg $ events_arg $ progress_arg)

(* --- bench diff -------------------------------------------------------- *)

module Bench_diff = Nmcache_engine.Bench_diff

let bench_diff a_path b_path gate =
  let load path =
    try Bench_diff.load path
    with Failure msg | Sys_error msg ->
      Printf.eprintf "ppcache: bench diff: %s\n" msg;
      exit 2
  in
  (match gate with
  | Some r when r <= 0.0 ->
    Printf.eprintf "ppcache: --gate must be > 0, got %g\n" r;
    exit 2
  | _ -> ());
  let a = load a_path and b = load b_path in
  print_string (Bench_diff.render a b);
  match gate with
  | None -> ()
  | Some ratio ->
    print_endline (Bench_diff.gate_verdict ~ratio a b);
    if Bench_diff.gate_exceeded ~ratio a b then exit 1

let bench_diff_cmd =
  let a = Arg.(required & pos 0 (some string) None & info [] ~docv:"A.json" ~doc:"Baseline bench report.") in
  let b = Arg.(required & pos 1 (some string) None & info [] ~docv:"B.json" ~doc:"Candidate bench report.") in
  let gate =
    Arg.(
      value
      & opt (some float) None
      & info [ "gate" ] ~docv:"RATIO"
          ~doc:
            "Fail (exit 1) when B's wall time exceeds $(docv) times A's.  The \
             CI regression policy is 1.5.")
  in
  let doc =
    "Compare two BENCH_<label>.json trajectory reports (bench schema v2 or \
     v3): wall time, per-experiment and per-stage walls, memo hit rates, \
     digests and resource counters, as a per-metric delta table."
  in
  Cmd.v (Cmd.info "diff" ~doc) Term.(const bench_diff $ a $ b $ gate)

let bench_cmd =
  let doc = "Bench-trajectory tools (see $(b,ppcache bench diff --help))." in
  Cmd.group (Cmd.info "bench" ~doc) [ bench_diff_cmd ]

(* --- workloads --------------------------------------------------------- *)

let workloads () =
  List.iter
    (fun (e : Registry.entry) ->
      Printf.printf "%-16s %s\n" e.Registry.name e.Registry.description)
    Registry.all

let workloads_cmd =
  let doc = "List the synthetic workload generators." in
  Cmd.v (Cmd.info "workloads" ~doc) Term.(const workloads $ const ())

(* --- store ------------------------------------------------------------ *)

(* `store info|compact` inspect an existing journal, never create one *)
let with_existing_store dir f =
  if not (Sys.file_exists (Filename.concat dir Nmcache_engine.Store.store_name))
  then begin
    Printf.eprintf "ppcache: no store at %s\n" dir;
    exit 2
  end;
  with_journal_dir ~flag:"store" dir f

let store_info dir =
  usage_guard @@ fun () ->
  let module S = Nmcache_engine.Store in
  with_existing_store dir (fun s ->
      Printf.printf "store: %s\n" (S.path s);
      Printf.printf "segment: PPSTOR0%d\n" (S.segment_version s);
      Printf.printf "live records: %d (%d bytes)\n" (S.entries s)
        (S.live_bytes s);
      Printf.printf "dead records: %d (%d bytes)\n" (S.dead_records s)
        (S.dead_bytes s);
      Printf.printf "file bytes: %d\n" (S.bytes s);
      if S.dropped_tail s then print_endline "corrupt tail: dropped on open")

let store_compact dir =
  usage_guard @@ fun () ->
  let module S = Nmcache_engine.Store in
  with_existing_store dir (fun s ->
      let r = S.compact s in
      Printf.printf
        "compacted %s: %d live record(s) kept, %d dead record(s) reclaimed, \
         %d -> %d bytes\n"
        (S.path s) r.S.live r.S.reclaimed_records r.S.before_bytes
        r.S.after_bytes)

let store_dir_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Store directory (holding store.ppck).")

let store_info_cmd =
  let doc =
    "Replay and summarise a store journal: segment version, live/dead record \
     and byte counts (dead records are on-disk duplicates shadowed by an \
     earlier first-write-wins record), and whether a corrupt tail was \
     dropped.  A missing store exits 2; so does a store held by a live \
     writer."
  in
  Cmd.v (Cmd.info "info" ~doc) Term.(const store_info $ store_dir_pos)

let store_compact_cmd =
  let doc =
    "Rewrite the live records into a fresh PPSTOR02 segment, reclaiming dead \
     bytes.  Crash-safe at any instruction: the new segment is written to \
     store.ppck.tmp, fsynced, then atomically renamed over store.ppck — the \
     old segment stays authoritative until that rename, and an interrupted \
     tmp is discarded on the next open."
  in
  Cmd.v (Cmd.info "compact" ~doc) Term.(const store_compact $ store_dir_pos)

let store_cmd =
  let doc = "Inspect and compact persistent model store journals." in
  Cmd.group (Cmd.info "store" ~doc) [ store_info_cmd; store_compact_cmd ]

(* --- serve ----------------------------------------------------------- *)

let serve store_dir socket queue max_conns global_queue write_timeout
    compact_ratio quick jobs retries deadline trace trace_json metrics_json
    faults_json metrics_prom events progress =
  set_jobs jobs;
  set_resilience ~retries ~deadline;
  if queue < 1 then begin
    Printf.eprintf "ppcache: --queue must be >= 1\n";
    exit 2
  end;
  if max_conns < 1 then begin
    Printf.eprintf "ppcache: --max-conns must be >= 1\n";
    exit 2
  end;
  if global_queue < 0 then begin
    Printf.eprintf "ppcache: --global-queue must be >= 1 (0 = max-conns*queue)\n";
    exit 2
  end;
  if not (compact_ratio > 0.) then begin
    Printf.eprintf "ppcache: --compact-ratio must be > 0\n";
    exit 2
  end;
  usage_guard @@ fun () ->
  with_observability ~faults_json ~metrics_prom ~events ~progress ~trace
    ~trace_json ~metrics_json
  @@ fun () ->
  let module S = Nmcache_engine.Store in
  let module Server = Nmcache_engine.Server in
  let ctx = context quick in
  let with_store f =
    match store_dir with
    | None -> f None
    | Some dir ->
      with_journal_dir ~summary:"store" ~flag:"--store" dir (fun s ->
          (* startup auto-compaction: when the dead fraction of the
             journal exceeds --compact-ratio, rewrite it before serving *)
          let dead = S.dead_bytes s and live = S.live_bytes s in
          let total = dead + live in
          if total > 0 && float_of_int dead > compact_ratio *. float_of_int total
          then begin
            let r = S.compact s in
            Printf.eprintf
              "ppcache: store %s: compacted %d dead record(s), %d -> %d bytes\n%!"
              (S.path s) r.S.reclaimed_records r.S.before_bytes r.S.after_bytes
          end;
          f (Some s))
  in
  with_store (fun store ->
      let pool = Nmcache_engine.Executor.pool () in
      let service =
        Core.Service.create ?store ~ctx ~queue
          ~jobs:(Nmcache_engine.Executor.get_jobs ())
          ()
      in
      Server.reset_drain ();
      Server.install_drain_signals ();
      let handler = Core.Service.handler service in
      let stats =
        match socket with
        | Some path ->
          Server.serve_unix_socket ~queue ~max_conns
            ?global_queue:(if global_queue = 0 then None else Some global_queue)
            ~write_timeout ~pool ~handler
            ~crash_response:Core.Service.crash_response
            ~overlong_response:Core.Service.overlong_response
            ~shed_response:Core.Service.shed_response ~path ()
        | None ->
          Server.serve ~queue ~pool ~handler
            ~crash_response:Core.Service.crash_response
            ~overlong_response:Core.Service.overlong_response ~input:Unix.stdin
            ~output:stdout ()
      in
      Printf.eprintf "ppcache: serve: %d requests, %d responses%s\n%!"
        stats.Server.requests stats.Server.responses
        (if stats.Server.drained then " (drained)" else ""))

let serve_cmd =
  let store =
    let doc =
      "Persist fitted models, miss-rate curves and optimisation results to \
       $(docv)/store.ppck (append-only, CRC-guarded) and answer repeat \
       queries from it — across restarts.  A corrupt tail (killed writer) is \
       truncated on open; a second server on the same directory fails fast."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let socket =
    let doc =
      "Listen on a Unix domain socket at $(docv) (up to --max-conns \
       connections served concurrently) instead of reading stdin."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let queue =
    let doc =
      "Bounded in-flight window: at most $(docv) request lines are read \
       ahead and evaluated per batch.  Independent of --jobs, so responses \
       are byte-identical at any pool width."
    in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let max_conns =
    let doc =
      "Serve at most $(docv) socket connections concurrently; a connection \
       accepted beyond the cap is shed with a single overloaded error line."
    in
    Arg.(value & opt int 4 & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let global_queue =
    let doc =
      "Cap total in-flight request lines across all connections at $(docv); \
       requests beyond the cap are answered with overloaded errors instead \
       of buffered.  0 (the default) means --max-conns times --queue."
    in
    Arg.(value & opt int 0 & info [ "global-queue" ] ~docv:"N" ~doc)
  in
  let write_timeout =
    let doc =
      "Drop a socket connection whose client stalls reads for more than \
       $(docv) seconds (SO_SNDTIMEO); only that connection is affected.  \
       0 disables."
    in
    Arg.(value & opt float 10. & info [ "write-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let compact_ratio =
    let doc =
      "Compact the store at startup when dead (shadowed duplicate) bytes \
       exceed $(docv) of the journal.  Crash-safe: the old segment stays \
       authoritative until one atomic rename."
    in
    Arg.(value & opt float 0.5 & info [ "compact-ratio" ] ~docv:"R" ~doc)
  in
  let doc =
    "Serve NDJSON design-space queries (optimize, miss_curve, amat, health) \
     from stdin or a Unix socket: one response line per request, structured \
     error objects for poisoned requests, admission control, per-key circuit \
     breakers and graceful SIGTERM drain.  See EXPERIMENTS.md for the \
     protocol."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve $ store $ socket $ queue $ max_conns $ global_queue
      $ write_timeout $ compact_ratio $ quick_arg $ jobs_arg $ retries_arg
      $ deadline_arg $ trace_arg $ trace_json_arg $ metrics_json_arg
      $ faults_json_arg $ metrics_prom_arg $ events_arg $ progress_arg)

let main =
  let doc = "power-performance trade-offs in nanometer-scale multi-level caches (DATE'05 reproduction)" in
  Cmd.group (Cmd.info "ppcache" ~version:"1.0.0" ~doc)
    [
      run_cmd;
      list_cmd;
      characterize_cmd;
      simulate_cmd;
      trace_cmd;
      verify_cmd;
      bench_cmd;
      workloads_cmd;
      store_cmd;
      serve_cmd;
    ]

let () =
  (* chaos-campaign children: the harness re-execs this binary with a
     child spec in the environment (OCaml 5 forbids fork once a domain
     exists), so dispatch before anything else — argv is ignored *)
  (match Sys.getenv_opt Verify.Chaos.child_env with
  | Some spec ->
    Verify.Chaos.child_main spec;
    exit 0
  | None -> ());
  (* arm deterministic fault injection before any subcommand runs; a
     malformed spec is a usage error, not a silent no-op *)
  (match Nmcache_engine.Faultpoint.configure_from_env () with
  | Ok _ -> ()
  | Error msg ->
    Printf.eprintf "ppcache: bad %s spec: %s\n" Nmcache_engine.Faultpoint.env_var msg;
    exit 2);
  (* every bad-argument path exits 2: cmdliner renders unknown flags /
     malformed options as its cli_error (124) — fold that onto the same
     code our own validators use *)
  let code = Cmd.eval main in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
