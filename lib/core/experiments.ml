type t = {
  id : string;
  title : string;
  paper_ref : string;
  run : Context.t -> Report.artefact list;
}

let paper =
  [
    {
      id = "fig1";
      title = "Fixed Vth vs fixed Tox trade-off curves (16KB cache)";
      paper_ref = "Figure 1";
      run = Single_cache.figure1;
    };
    {
      id = "schemes";
      title = "Scheme I/II/III minimum leakage under delay constraints";
      paper_ref = "Section 4 (in-text, T1)";
      run = Single_cache.scheme_table;
    };
    {
      id = "l2sweep";
      title = "L2 sizing with a single (Vth,Tox) pair";
      paper_ref = "Section 5 (in-text, T2)";
      run = Two_level.l2_single_pair;
    };
    {
      id = "l2sweep2";
      title = "L2 sizing with per-component pairs";
      paper_ref = "Section 5 (in-text, T3)";
      run = Two_level.l2_two_pair;
    };
    {
      id = "l1sweep";
      title = "L1 sizing under a fixed L2";
      paper_ref = "Section 5 (in-text, T4)";
      run = Two_level.l1_sweep;
    };
    {
      id = "fig2";
      title = "(Tox, Vth) tuple problem — energy vs AMAT frontiers";
      paper_ref = "Figure 2";
      run = Tuple_study.figure2;
    };
  ]

let extensions =
  [
    {
      id = "ablate-knobs";
      title = "Single-knob ablation (Vth-only vs Tox-only)";
      paper_ref = "extension X1";
      run = Ablations.knob_ablation;
    };
    {
      id = "ablate-temp";
      title = "Temperature sensitivity of the optimum";
      paper_ref = "extension X2";
      run = Ablations.temperature_sensitivity;
    };
    {
      id = "ablate-policy";
      title = "Replacement-policy sensitivity of the miss-rate tables";
      paper_ref = "extension X3";
      run = Ablations.policy_ablation;
    };
    {
      id = "fig2-workloads";
      title = "Per-workload tuple-problem cross-sections";
      paper_ref = "extension X4";
      run = Ablations.per_workload_tuple;
    };
    {
      id = "fitcheck";
      title = "Compact-model fit audit";
      paper_ref = "extension X5";
      run = Ablations.fit_audit;
    };
    {
      id = "variation";
      title = "Within-die Vth variation and mean-leakage inflation";
      paper_ref = "extension X6";
      run = Extensions.variation_study;
    };
    {
      id = "ablate-vdd";
      title = "Supply-voltage sensitivity";
      paper_ref = "extension X7";
      run = Extensions.vdd_sensitivity;
    };
    {
      id = "drowsy";
      title = "Drowsy standby vs process knobs";
      paper_ref = "extension X8";
      run = Extensions.drowsy_comparison;
    };
    {
      id = "anneal";
      title = "Simulated-annealing cross-check of the exact Scheme I search";
      paper_ref = "extension X9";
      run = Extensions.anneal_crosscheck;
    };
    {
      id = "geometry";
      title = "L1 associativity and block-size sweeps";
      paper_ref = "extension X10";
      run = Extensions.geometry_sweeps;
    };
    {
      id = "prefetch";
      title = "Next-line prefetching vs L2 sizing";
      paper_ref = "extension X11";
      run = Extensions.prefetch_study;
    };
    {
      id = "summary";
      title = "Paper-claim verdicts, computed live";
      paper_ref = "all claims";
      run = Summary.run;
    };
  ]

let all = paper @ extensions
let find id = List.find_opt (fun e -> e.id = id) all
let ids = List.map (fun e -> e.id) all

(* a named span per experiment so trace viewers and perfbench's
   experiment shares get per-experiment wall time without re-timing;
   the fault point is keyed by experiment id, so chaos harnesses can
   fail one experiment by name while its siblings complete *)
let kernel ctx (e : t) =
  Nmcache_engine.Faultpoint.hit ~point:"experiment" ~key:e.id ();
  let artefacts =
    Nmcache_engine.Span.with_span
      ~attrs:[ ("id", Nmcache_engine.Json.String e.id) ]
      ("experiment:" ^ e.id)
      (fun () -> e.run ctx)
  in
  if Nmcache_engine.Events.enabled () then
    Nmcache_engine.Events.emit (Nmcache_engine.Events.Experiment_done { id = e.id });
  artefacts

(* the slot key joins the experiment id with the context fingerprint:
   a checkpoint journal is only ever replayed into the run that would
   recompute the identical artefacts *)
let task ctx =
  Nmcache_engine.Task.make ~name:"experiments.run"
    ~key:(fun e -> e.id ^ "|" ^ Context.fingerprint ctx)
    (fun e -> kernel ctx e)

let run_many ctx exps =
  List.map2
    (fun e artefacts -> (e, artefacts))
    exps
    (Nmcache_engine.Sweep.map_list (task ctx) exps)

let run_many_result ctx exps =
  List.map2
    (fun e status -> (e, status))
    exps
    (Nmcache_engine.Sweep.map_list_result (task ctx) exps)
