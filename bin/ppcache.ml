(* ppcache — CLI for the DATE'05 power-performance cache study.

   Subcommands: run (any experiment by id), list, characterize (fit the
   compact models of one cache and print them), simulate (miss rates of
   one workload or recorded trace on one hierarchy), trace (record and
   inspect PPTRC01 trace files), verify (differential oracles, paper
   anchors, golden snapshot gates and the chaos campaign), workloads,
   store (inspect and compact a store journal), serve (answer NDJSON
   design queries from stdin or a Unix socket). *)

module Units = Nmcache_physics.Units
module Config = Nmcache_geometry.Config
module Cache_model = Nmcache_geometry.Cache_model
module Component = Nmcache_geometry.Component
module Fitted_cache = Nmcache_fit.Fitted_cache
module Model = Nmcache_fit.Model
module Missrate = Nmcache_workload.Missrate
module Registry = Nmcache_workload.Registry
module Wstream = Nmcache_workload.Stream
module Trace_rec = Nmcache_cachesim.Trace
module Stream_trace = Nmcache_cachesim.Stream_trace
module Cache = Nmcache_cachesim.Cache
module Replacement = Nmcache_cachesim.Replacement

open Cmdliner

(* A usage error: the message on stderr, then exit 2, the status of
   every bad-argument path. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let quick_arg =
  let doc = "Use the reduced context (shorter traces, coarser grids)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

(* --- the shared flags --------------------------------------------------- *)

let jobs_arg =
  let doc =
    "Evaluate independent kernels on $(docv) domains.  Output is \
     byte-identical to --jobs 1; 0 means one domain per core."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Print the engine trace summary (per-stage wall time, task counts, memo hit \
     rates) after the run; $(b,serve) prints it to stderr, so its stdout \
     stays one response line per request."
  in
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
     fit/anneal/simulate retry boundaries; the next attempt starts at once. \
     $(b,1) disables retries."
  in
  Arg.(
    value
    & opt int Nmcache_engine.Retry.default_max_attempts
    & info [ "retries" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Cooperative per-kernel budget in seconds: a kernel that overruns it \
     (observed at the fit / annealer / cachesim poll points) becomes a typed \
     $(b,timed_out) fault in its own slot instead of a hung run.  0 fires on \
     the first poll."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

(* The engine, resilience and report flags, parsed once for every
   subcommand into one value. *)
type session = {
  jobs : int;
  retries : int;
  deadline : float option;
  checkpoint : string option;
  resume : bool;
  trace : bool;
  trace_json : string option;
  metrics_json : string option;
  metrics_prom : string option;
  events : string option;
  progress : bool;
}

(* All eleven flags by default.  [~engine:false] leaves out --jobs,
   --retries, --deadline, --events and --progress, [~checkpoint:false]
   --checkpoint and --resume, [~prom:false] --metrics-prom; a flag left
   out takes its default. *)
let session_term ?(engine = true) ?(checkpoint = true) ?(prom = true) () =
  let offer on arg default = if on then arg else Term.const default in
  let session jobs retries deadline checkpoint resume trace trace_json metrics_json
      metrics_prom events progress =
    {
      jobs;
      retries;
      deadline;
      checkpoint;
      resume;
      trace;
      trace_json;
      metrics_json;
      metrics_prom;
      events;
      progress;
    }
  in
  Term.(
    const session
    $ offer engine jobs_arg 1
    $ offer engine retries_arg 3
    $ offer engine deadline_arg None
    $ offer checkpoint checkpoint_arg None
    $ offer checkpoint resume_arg false
    $ trace_arg $ trace_json_arg $ metrics_json_arg
    $ offer prom metrics_prom_arg None
    $ offer engine events_arg None
    $ offer engine progress_arg false)

(* The journal in [dir] behind --checkpoint, --store and `store DIR`
   ([fresh]: start it over).  A directory that cannot hold a journal,
   or one held by a live writer, is a usage error (exit 2). *)
let open_store ?(fresh = false) ~flag dir =
  let module S = Nmcache_engine.Store in
  let fail fmt = fail ("ppcache: %s %s" ^^ fmt) flag dir in
  try if fresh then S.open_fresh ~dir else S.open_ ~dir with
  | Nmcache_engine.Lockfile.Locked { path; pid } ->
    fail
      " is locked by running pid %d (%s); two writers on one journal would \
       interleave records"
      pid path
  | Unix.Unix_error (e, _, _) -> fail ": %s" (Unix.error_message e)
  | Sys_error msg -> fail ": %s" msg

(* Usage-error boundary: bad geometry/arguments surface as
   Invalid_argument from the constructors — render the message with a
   usage hint and exit 2, like every other bad-argument path. *)
let usage_guard f =
  try f ()
  with Invalid_argument msg ->
    fail "ppcache: %s\nppcache: exiting 2 (usage); see --help" msg

(* Report-file arguments must be plainly writable before the run
   starts: an empty path, a missing parent directory or an existing
   directory at the target is a usage error (exit 2), not a crash
   after minutes of sweeping. *)
let validate_out_path ~flag path =
  let fail fmt = fail ("ppcache: --%s: " ^^ fmt) flag in
  if path = "" then fail "path is empty";
  if path.[String.length path - 1] = '/' then fail "%S is a directory path" path;
  (try if Sys.is_directory path then fail "%S is a directory" path
   with Sys_error _ -> ());
  let dir = Filename.dirname path in
  if not (try Sys.is_directory dir with Sys_error _ -> false) then
    fail "parent directory %S does not exist" dir

(* Run [f] under the shared flags, in this order:
   - check every flag, then open the --checkpoint journal (a fresh one
     without --resume) or serve's [store], so that a usage error exits
     2 before any file is touched;
   - arm the engine knobs, the event sink and span collection (spans
     carry timestamps, so only --trace-json collects them), then hand
     the checkpoint to Sweep, whose checkpoint_replayed event the sink
     now records;
   - run [f] on the open journal;
   - on the way out, even when [f] raises, close the journal with its
     counts on stderr (stdout is byte-compared against uninterrupted
     runs) and write the reports, so a crashed run still leaves its
     trace behind.  The --trace table goes to [trace_out]. *)
let with_session ?(trace_out = stdout) ?store s f =
  let module E = Nmcache_engine in
  if s.jobs < 0 then fail "ppcache: --jobs must be >= 0";
  if s.retries < 1 then fail "ppcache: --retries must be >= 1";
  (match s.deadline with
  | Some d when d < 0.0 -> fail "ppcache: --deadline must be >= 0"
  | _ -> ());
  if s.resume && s.checkpoint = None then
    fail "ppcache: --resume requires --checkpoint DIR";
  List.iter
    (fun (flag, path) -> Option.iter (validate_out_path ~flag) path)
    [
      ("trace-json", s.trace_json);
      ("metrics-json", s.metrics_json);
      ("events", s.events);
      ("metrics-prom", s.metrics_prom);
    ];
  let label, journal =
    match (s.checkpoint, store) with
    | Some dir, _ ->
      ("checkpoint", Some (open_store ~fresh:(not s.resume) ~flag:"--checkpoint" dir))
    | None, Some dir -> ("store", Some (open_store ~flag:"--store" dir))
    | None, None -> ("", None)
  in
  E.Executor.set_jobs (if s.jobs = 0 then E.Executor.default_jobs () else s.jobs);
  E.Retry.set_max_attempts s.retries;
  E.Deadline.set_default s.deadline;
  Option.iter E.Events.set_file s.events;
  if s.progress then E.Events.set_progress true;
  if s.trace_json <> None then E.Span.set_enabled true;
  if s.checkpoint <> None then E.Sweep.set_journal journal;
  Fun.protect
    ~finally:(fun () ->
      E.Sweep.set_journal None;
      Option.iter
        (fun j ->
          let module S = E.Store in
          Printf.eprintf "ppcache: %s %s: %d replayed, %d served, %d appended%s\n%!"
            label (S.path j) (S.replayed j) (S.served j) (S.appended j)
            (if S.dropped_tail j then " (corrupt tail dropped)" else "");
          S.close j)
        journal;
      if s.trace then output_string trace_out (E.Trace.summary ());
      Option.iter (fun path -> E.Obs.write_trace ~path) s.trace_json;
      Option.iter (fun path -> E.Obs.write_metrics ~path) s.metrics_json;
      Option.iter (fun path -> E.Obs.write_openmetrics ~path) s.metrics_prom;
      E.Events.close ())
    (fun () -> f journal)

let context quick = if quick then Core.Context.quick () else Core.Context.default ()

(* --- run ------------------------------------------------------------ *)

let print_heading (e : Core.Experiments.t) =
  Printf.printf "### %s — %s (%s)\n\n" e.Core.Experiments.id e.Core.Experiments.title
    e.Core.Experiments.paper_ref

let run_experiment ids quick csv fail_fast session =
  let ctx = context quick in
  let targets =
    match ids with
    | [] | [ "all" ] -> Core.Experiments.all
    | ids ->
      List.map
        (fun id ->
          match Core.Experiments.find id with
          | Some e -> e
          | None -> fail "unknown experiment %S; try `ppcache list`" id)
        ids
  in
  let faulted = ref 0 in
  let aborted = ref None in
  with_session session (fun _ ->
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
        (* caught inside the session so the report files still record
           the aborted run *)
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
        results);
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
  let fail_fast =
    let doc =
      "Abort on the first experiment fault instead of completing the remaining \
       experiments and reporting per-experiment status."
    in
    Arg.(value & flag & info [ "fail-fast" ] ~doc)
  in
  let doc =
    "Run one or more experiments and print their tables/series.  A faulting \
     experiment is reported in place (and in the faults section of the \
     --metrics-json report) while the rest complete; the exit status is 1 if \
     anything faulted.  Set $(b,PPCACHE_FAULTS) to inject deterministic faults."
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run_experiment $ ids $ quick_arg $ csv $ fail_fast $ session_term ())

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
    | _ -> fail "ppcache: --%s wants LO:HI in %s, got %S" what unit s)
  | _ -> fail "ppcache: --%s wants LO:HI in %s, got %S" what unit s

(* Characterisation bounds must stay inside the paper's knob grid —
   the compact models are only calibrated there, and a fit over
   garbage bounds would silently extrapolate device physics.  Exit 2
   (usage error), not a fault: the run never started. *)
let validate_knob_ranges (tech : Nmcache_device.Tech.t) ~vth ~tox =
  let check what unit lo hi t_lo t_hi =
    if hi <= lo then fail "ppcache: --%s range is empty (%g:%g)" what lo hi;
    if lo < t_lo || hi > t_hi then
      fail
        "ppcache: --%s %g:%g %s is outside the paper's %s grid (%g-%g %s); \
         the compact models are only calibrated there"
        what lo hi unit what t_lo t_hi unit
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
  if v <= 0 then fail "ppcache: --%s must be > 0, got %d" what v

let characterize size_kb assoc block vth tox session =
  let tech = Nmcache_device.Tech.bptm65 in
  require_positive "size" size_kb;
  require_positive "assoc" assoc;
  require_positive "block" block;
  let vth = Option.map (parse_range ~what:"vth" ~unit:"volts") vth in
  let tox = Option.map (parse_range ~what:"tox" ~unit:"angstrom") tox in
  validate_knob_ranges tech ~vth ~tox;
  usage_guard @@ fun () ->
  let config = Config.make ~size_bytes:(size_kb * 1024) ~assoc ~block_bytes:block () in
  with_session session (fun _ ->
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
      const characterize $ size $ assoc $ block $ vth $ tox
      $ session_term ~engine:false ~checkpoint:false ~prom:false ())

(* --- simulate --------------------------------------------------------- *)

let print_point ~header p =
  print_string header;
  Printf.printf "  L1 miss rate       %.3f%%\n" (100.0 *. p.Missrate.l1_miss);
  Printf.printf "  L2 local miss rate %.3f%%\n" (100.0 *. p.Missrate.l2_local);
  Printf.printf "  L2 global miss     %.3f%%\n" (100.0 *. p.Missrate.l2_global)

(* The L1/L2 pair `simulate` models, as [Missrate.simulate_stream]
   builds it for a workload: 4-way L1, 8-way L2, 64-byte blocks, LRU. *)
let pair ~l1_kb ~l2_kb =
  let cache kb assoc =
    Cache.create ~size_bytes:(kb * 1024) ~assoc ~block_bytes:64 ~policy:Replacement.Lru ()
  in
  Cache.pair ~l1:(cache l1_kb 4) ~l2:(cache l2_kb 8)

(* Simulate a recorded (or piped) trace on the pair [p]: one streamed
   pass carries the pair, the running statistics analyzer
   and the access count — a single traversal, because a pipe cannot be
   re-read.  When a checkpoint journal is armed and the source is a
   trace file, chunk boundaries are resumable slots.  Returns false for
   an empty trace: there is no defined miss rate, so the caller exits 2
   (after the session has closed the journal and written the reports:
   exit does not unwind Fun.protect). *)
let simulate_trace_source ~source ~chunk ~l1_kb ~l2_kb p =
  let s =
    match source with
    | `File path -> Stream_trace.of_file ~chunk_size:chunk path
    | `Stdin -> Stream_trace.of_ndjson_fd ~chunk_size:chunk ~name:"stdin" Unix.stdin
  in
  let l1_size = l1_kb * 1024 and l2_size = l2_kb * 1024 in
  let salt = Printf.sprintf "simulate-trace:%d:%d" l1_size l2_size in
  let p, analyzer, count =
    Stream_trace.resumable_fold ~salt s ~init:(p, Trace_rec.analyzer (), 0)
      ~f:(fun (p, a, count) ~index:_ chunk ->
        for i = 0 to Array.length chunk - 1 do
          let e = chunk.(i) in
          Trace_rec.feed_analyzer a (Stream_trace.addr e) (Stream_trace.is_write e)
        done;
        Cache.run_pair p chunk 0 (Array.length chunk);
        (p, a, count + Array.length chunk))
  in
  (* a file whose tail was torn off or cut at a record boundary yields
     fewer accesses than its header declares: say so on stderr, leaving
     stdout to the accesses that were read *)
  let short =
    match (source, Stream_trace.declared_length s) with
    | `File path, Some total when count < total -> Some (path, total)
    | _ -> None
  in
  if count = 0 then begin
    (match short with
    | None ->
      Printf.eprintf "ppcache: trace %s is empty (0 accesses); nothing to simulate\n"
        (Stream_trace.name s)
    | Some (path, total) ->
      Printf.eprintf
        "ppcache: trace %s is empty (0 of the %d accesses %s declares; tail \
         dropped); nothing to simulate\n"
        (Stream_trace.name s) total path);
    false
  end
  else begin
    Option.iter
      (fun (path, total) ->
        Printf.eprintf
          "ppcache: short read: %s yielded %d of the %d accesses its header \
           declares (tail dropped)\n"
          path count total)
      short;
    Printf.printf "trace %s (%d accesses, L1 %dKB, L2 %dKB):\n" (Stream_trace.name s)
      count l1_kb l2_kb;
    Format.printf "  %a@." Trace_rec.pp_stats (Trace_rec.analyzer_stats analyzer);
    print_point ~header:"" (Missrate.point_of_pair p);
    true
  end

let simulate workload l1_kb l2_kb n chunk trace_file trace_stdin session =
  require_positive "l1" l1_kb;
  require_positive "l2" l2_kb;
  require_positive "chunk" chunk;
  if trace_file <> None && trace_stdin then
    fail "ppcache: --trace-file and --trace-stdin are mutually exclusive";
  (* a missing trace file is a usage error naming the file, like
     `trace info`, not a crash once the run is armed *)
  Option.iter
    (fun path ->
      try close_in (open_in_bin path)
      with Sys_error msg -> fail "ppcache: --trace-file %s" msg)
    trace_file;
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
    if Registry.find workload = None then
      fail "unknown workload %S; available: %s" workload
        (String.concat ", " Registry.names);
    require_positive "accesses" n
  | Some _ -> ());
  let ok = ref true in
  usage_guard (fun () ->
      (* built before the session, so that a size the pair refuses
         exits 2 before any report file is touched *)
      let p = pair ~l1_kb ~l2_kb in
      with_session session (fun _ ->
          match source with
          | None ->
            (* a workload streams, so --checkpoint journals its chunks *)
            let point =
              Nmcache_engine.Span.with_span
                ~attrs:[ ("workload", Nmcache_engine.Json.String workload) ]
                "simulate"
                (fun () ->
                  Missrate.simulate_stream
                    ~stream:(Wstream.of_workload ~chunk_size:chunk ~workload ~n ())
                    ~l1_size:(l1_kb * 1024) ~l2_size:(l2_kb * 1024) ())
            in
            print_point
              ~header:
                (Printf.sprintf "%s over %d accesses (L1 %dKB, L2 %dKB):\n" workload n
                   l1_kb l2_kb)
              point
          | Some source -> ok := simulate_trace_source ~source ~chunk ~l1_kb ~l2_kb p));
  if not !ok then exit 2

let simulate_cmd =
  let workload =
    Arg.(value & opt string "spec2000-mix" & info [ "workload" ] ~doc:"Workload name.")
  in
  let l1 = Arg.(value & opt int 16 & info [ "l1" ] ~docv:"KB" ~doc:"L1 size in KB.") in
  let l2 = Arg.(value & opt int 1024 & info [ "l2" ] ~docv:"KB" ~doc:"L2 size in KB.") in
  let n = Arg.(value & opt int 2_000_000 & info [ "n"; "accesses" ] ~doc:"Trace length.") in
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
             exits 2.  A file that yields fewer accesses than its header \
             declares (its tail was torn off or cut) is simulated as read, with \
             one stderr line giving both counts.")
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
     and print miss rates.  Every source is streamed a chunk at a time in \
     O(chunk) memory; with $(b,--checkpoint) a killed run of a workload or a \
     trace file resumes byte-identically."
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const simulate $ workload $ l1 $ l2 $ n $ chunk $ trace_file $ trace_stdin
      $ session_term ~prom:false ())

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
    if Registry.find workload = None then
      fail "unknown workload %S; available: %s" workload
        (String.concat ", " Registry.names);
    if n < 0 then fail "ppcache: --accesses must be >= 0, got %d" n;
    usage_guard @@ fun () ->
    (* packed entries straight from the generator, through the same
       recorder as --from-ndjson: the bytes [write_file] writes *)
    let total =
      Stream_trace.record_stream ~path:out
        (Wstream.of_workload ~chunk_size:chunk ~seed ~workload ~n ())
    in
    Printf.printf "recorded %s: %d accesses to %s (chunk %d)\n" workload total out
      chunk
  end

let trace_info file =
  usage_guard @@ fun () ->
  let info =
    try Stream_trace.file_info file with Sys_error msg -> fail "ppcache: %s" msg
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
             --accesses and --seed are ignored.  A malformed or overlong line \
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

let verify sections quick golden_dir update_golden report_json seeds session =
  if seeds < 1 then fail "ppcache: --seeds must be >= 1, got %d" seeds;
  List.iter
    (fun s ->
      if not (List.mem s verify_sections) then
        fail "ppcache: unknown verify section %S; available: %s" s
          (String.concat ", " verify_sections))
    sections;
  Option.iter (validate_out_path ~flag:"report-json") report_json;
  let selected = match sections with [] -> [ "oracles"; "anchors" ] | s -> s in
  let on = List.mem in
  if on "golden" selected && not (try Sys.is_directory golden_dir with Sys_error _ -> false)
  then
    fail "ppcache: --golden-dir %s: no such directory (the default is relative to the \
          repository root)"
      golden_dir;
  let ctx = context quick in
  let checks = ref [] in
  with_session session (fun _ ->
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
        report_json);
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
      $ seeds $ session_term ())

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
  then fail "ppcache: no store at %s" dir;
  let s = open_store ~flag:"store" dir in
  Fun.protect ~finally:(fun () -> Nmcache_engine.Store.close s) (fun () -> f s)

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
    compact_ratio quick session =
  if queue < 1 then fail "ppcache: --queue must be >= 1";
  if max_conns < 1 then fail "ppcache: --max-conns must be >= 1";
  if global_queue < 0 then
    fail "ppcache: --global-queue must be >= 0 (0 = max-conns*queue)";
  if not (compact_ratio > 0.) then fail "ppcache: --compact-ratio must be > 0";
  (* a socket path lives where a report file would: its directory must
     exist before the store opens, and a non-socket file already there
     is refused (Invalid_argument, exit 2) before the session starts *)
  Option.iter (validate_out_path ~flag:"socket") socket;
  usage_guard @@ fun () ->
  Option.iter (fun path -> ignore (Nmcache_engine.Server.check_socket_path path)) socket;
  (* stdout carries one response line per request, so the --trace
     table goes to stderr *)
  with_session ~trace_out:stderr ?store:store_dir session @@ fun store ->
  let module S = Nmcache_engine.Store in
  let module Server = Nmcache_engine.Server in
  let ctx = context quick in
  (* startup auto-compaction: when the dead fraction of the journal
     exceeds --compact-ratio, rewrite it before serving *)
  Option.iter
    (fun s ->
      let dead = S.dead_bytes s and live = S.live_bytes s in
      let total = dead + live in
      if total > 0 && float_of_int dead > compact_ratio *. float_of_int total then begin
        let r = S.compact s in
        Printf.eprintf "ppcache: store %s: compacted %d dead record(s), %d -> %d bytes\n%!"
          (S.path s) r.S.reclaimed_records r.S.before_bytes r.S.after_bytes
      end)
    store;
  let pool = Nmcache_engine.Executor.pool () in
  let service =
    Core.Service.create ?store ~ctx ~queue ~jobs:(Nmcache_engine.Executor.get_jobs ()) ()
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
    (if stats.Server.drained then " (drained)" else "")

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
      $ write_timeout $ compact_ratio $ quick_arg $ session_term ~checkpoint:false ())

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
  | Error msg -> fail "ppcache: bad %s spec: %s" Nmcache_engine.Faultpoint.env_var msg);
  (* every bad-argument path exits 2: cmdliner renders unknown flags /
     malformed options as its cli_error (124) — fold that onto the same
     code our own validators use *)
  let code = Cmd.eval main in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
