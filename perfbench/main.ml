(* The repository benchmark: one workload per process, at one seed.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     main.exe --self-test

   Untraced, it prints the end-to-end metrics; with --trace 1 it keeps
   spans over the timed region, measures the layer ledger and prints
   the per-layer metrics instead, and writes the spans as Chrome trace
   JSON to .perfbench/trace-NAME-SEED.json.  The last line of standard
   output is always the JSON result: correct, attempted, failed and
   metrics.  BENCHMARK.json lists the metrics and perfbench/README.md
   defines them. *)

module Span = Nmcache_engine.Span
module Metrics = Nmcache_engine.Metrics
module Json = Nmcache_engine.Json
module Registry = Nmcache_workload.Registry
module W = Workloads

(* the Engine.Trace stages the four workloads record *)
let stages =
  [
    "experiments.run";
    "context.characterize+fit";
    "scheme.tables";
    "scheme.split";
    "scheme.dp";
    "single_cache.scheme-row";
    "missrate.grid";
    "missrate.l2-curve";
    "missrate.l1-sweep";
    "missrate.profile";
    "two_level.l2-row";
    "two_level.l1-row";
  ]

let metric_name s =
  String.map
    (fun c ->
      match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> c | _ -> '_')
    s

let end_to_end (o : W.outcome) =
  let q = Quantile.summarize o.W.latency_us in
  Printf.eprintf "perfbench: %d latency samples, tail %s\n" q.Quantile.n
    (match q.Quantile.tail with
    | Some (p, v) -> Printf.sprintf "%s %.1f us" p v
    | None -> "none (under 100 samples)");
  [
    ("setup_s", o.W.setup_s, "s");
    ("ops_per_s", float_of_int o.W.ops /. o.W.region_s, "1/s");
    ("latency_p50_us", q.Quantile.p50, "us");
    ("peak_rss_mb", o.W.after.W.peak_rss_mb, "MB");
  ]

(* The latency tail of the timed region, then what the program's own
   spans, stage table and memo counters say about the region, as shares
   of it.  The tail is not an end-to-end metric: on a shared host it
   does not repeat across runs within any bound the benchmark may set. *)
let region_layers (o : W.outcome) =
  let q = Quantile.summarize o.W.latency_us in
  let share s = s /. o.W.region_s in
  let spans = Span.spans () in
  let experiment id =
    List.fold_left
      (fun acc (s : Span.span) ->
        if s.Span.name = "experiment:" ^ id then acc +. (s.Span.dur_us /. 1e6) else acc)
      0. spans
  in
  let memo cache =
    let h0, m0 = List.assoc cache o.W.before.W.memos in
    let h1, m1 = List.assoc cache o.W.after.W.memos in
    let hits = h1 - h0 and lookups = h1 - h0 + (m1 - m0) in
    let name = "core.memo." ^ metric_name cache in
    [
      ( name ^ "_hit_ratio",
        (if lookups = 0 then 0. else float_of_int hits /. float_of_int lookups),
        "fraction" );
      (name ^ "_lookups", float_of_int lookups, "count");
    ]
  in
  let gc0 = o.W.before.W.gc and gc1 = o.W.after.W.gc in
  [
    ("latency_p90_us", q.Quantile.p90, "us");
    ("latency_n", float_of_int q.Quantile.n, "count");
  ]
  @ List.map
    (fun id -> ("core.experiment." ^ metric_name id ^ "_share", share (experiment id), "fraction"))
    Core.Experiments.ids
  @ List.map
      (fun stage ->
        ( "core.stage." ^ metric_name stage ^ "_share",
          share (W.stage_delta ~before:o.W.before ~after:o.W.after stage),
          "fraction" ))
      stages
  @ List.concat_map memo W.memo_caches
  @ [
      ( "engine.gc.allocated_words",
        gc1.Measure.words -. gc0.Measure.words,
        "words" );
      ( "engine.gc.minor_collections",
        float_of_int (gc1.Measure.minor - gc0.Measure.minor),
        "count" );
      ( "engine.gc.major_collections",
        float_of_int (gc1.Measure.major - gc0.Measure.major),
        "count" );
      ("attributed_frac", share o.W.attributed_s, "fraction");
      ("trace_overhead_frac", o.W.overhead_frac, "fraction");
    ]

(* counters over the whole traced process, ledger included *)
let counters () =
  let c name = float_of_int (Metrics.counter_value name) in
  [
    ("fit.lm_fits", c "lm.fits", "count");
    ( "fit.lm_converged_ratio",
      (if c "lm.fits" = 0. then 0. else c "lm.converged" /. c "lm.fits"),
      "fraction" );
    ("fit.leak_retry_exhausted", c "retry.exhausted.fit.leak", "count");
    ("cachesim.simulations", c "cachesim.simulations", "count");
    ("cachesim.mattson_curves", c "cachesim.mattson_curves", "count");
  ]

let result (o : W.outcome) metrics =
  Json.Obj
    [
      ("correct", Json.Bool (o.W.failed = 0));
      ("attempted", Json.Int o.W.attempted);
      ("failed", Json.Int o.W.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, value, unit) ->
               (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ]))
             metrics) );
    ]

let run workload seed seconds traced =
  Fun.protect ~finally:Measure.remove_scratch @@ fun () ->
  let o = W.run workload ~seed ~seconds ~traced in
  let metrics =
    if not traced then end_to_end o
    else begin
      Span.set_enabled false;
      let region = region_layers o in
      let ledger = Ledger.measure ~seed in
      let path =
        Filename.concat Measure.scratch_root (Printf.sprintf "trace-%s-%d.json" workload seed)
      in
      Nmcache_engine.Obs.write_trace ~path;
      Printf.eprintf "perfbench: spans written to %s\n" path;
      region @ ledger @ counters ()
    end
  in
  match List.find_opt (fun (_, v, _) -> not (Float.is_finite v)) metrics with
  | Some (name, _, _) -> `Error (false, Printf.sprintf "metric %s is not finite" name)
  | None ->
    List.iter (fun (name, v, unit) -> Printf.printf "%-44s %16.6g %s\n" name v unit) metrics;
    Printf.printf "attempted %d, failed %d\n" o.W.attempted o.W.failed;
    print_endline (Json.to_string (result o metrics));
    `Ok ()

let main workload seed seconds traced setup_in self_test =
  Quantile.self_check ();
  match (workload, setup_in) with
  | _ when self_test -> `Ok ()
  | None, _ -> `Error (true, "--workload is required")
  | Some workload, Some dir -> `Ok (W.setup workload ~seed ~dir)
  | Some _, None when seconds <= 0. -> `Error (false, "--seconds must be > 0")
  | Some workload, None -> run workload seed seconds traced

let () =
  let open Cmdliner in
  let workload =
    Arg.(
      value
      & opt (some (enum (List.map (fun n -> (n, n)) W.names))) None
      & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run.")
  in
  let seed =
    Arg.(
      value
      & opt int (Int64.to_int Registry.default_seed)
      & info [ "seed" ] ~docv:"N" ~doc:"Seed the workload's inputs are made from.")
  in
  let seconds =
    Arg.(
      value & opt float 20.
      & info [ "seconds" ] ~docv:"S" ~doc:"Length of the timed region.")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"1: print the per-layer metrics of a traced run instead.")
  in
  let setup_in =
    Arg.(
      value
      & opt (some dir) None
      & info [ "setup-in" ] ~docv:"DIR"
          ~doc:
            "Only set the workload up, in $(docv), and exit: the fresh processes \
             setup_s is timed over.")
  in
  let self_test =
    Arg.(
      value & flag
      & info [ "self-test" ] ~doc:"Only check the quantile helper on known arrays.")
  in
  let term =
    Term.(ret (const main $ workload $ seed $ seconds $ trace $ setup_in $ self_test))
  in
  exit (Cmd.eval (Cmd.v (Cmd.info "perfbench" ~doc:"Run one benchmark workload.") term))
