(* Chaos suite for the fault-tolerant engine: typed-fault encoding,
   deterministic injection, partial-result sweeps that never hang the
   pool or poison the memo table, numeric-guard recovery in Lm, and
   Out_of_domain enforcement on the fitted models.

   Faultpoint arming and the fault log are process-wide, so every test
   that configures injection disarms and resets in a [Fun.protect]
   finally — the rest of the test binary must run injection-free. *)

module Fault = Nmcache_engine.Fault
module Faultpoint = Nmcache_engine.Faultpoint
module Pool = Nmcache_engine.Pool
module Memo = Nmcache_engine.Memo
module Task = Nmcache_engine.Task
module Sweep = Nmcache_engine.Sweep
module Executor = Nmcache_engine.Executor
module Fitter = Nmcache_fit.Fitter
module Metrics = Nmcache_engine.Metrics
module Minimize = Nmcache_numerics.Minimize
module Component = Nmcache_geometry.Component
module Config = Nmcache_geometry.Config
module Cache_model = Nmcache_geometry.Cache_model
module Fitted_cache = Nmcache_fit.Fitted_cache
module Tech = Nmcache_device.Tech
module Units = Nmcache_physics.Units

let with_injection spec f =
  (match Faultpoint.configure spec with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("spec rejected: " ^ msg));
  Fun.protect
    ~finally:(fun () ->
      Faultpoint.clear ();
      Fault.reset ())
    f

(* --- Fault: kinds, JSON, classification, log ----------------------------- *)

let all_kinds =
  Fault.
    [ Fit_diverged; Singular_system; Non_finite; Out_of_domain; Injected; Crashed; Timed_out ]

let test_kind_names () =
  List.iter
    (fun k ->
      let n = Fault.kind_name k in
      Alcotest.(check string) "name is lowercase" (String.lowercase_ascii n) n;
      Alcotest.(check bool) (n ^ " roundtrips") true (Fault.kind_of_name n = Some k))
    all_kinds;
  Alcotest.(check bool) "unknown name rejected" true (Fault.kind_of_name "splines" = None)

let test_json_roundtrip () =
  List.iter
    (fun k ->
      let f = Fault.make ~kind:k ~stage:"fit.leak" "n=35:vth0=0.200" in
      match Fault.of_json (Fault.to_json f) with
      | Some f' ->
        Alcotest.(check bool)
          (Fault.kind_name k ^ " json roundtrip")
          true
          (Fault.compare f f' = 0)
      | None -> Alcotest.fail "of_json returned None")
    all_kinds;
  Alcotest.(check bool) "garbage json rejected" true
    (Fault.of_json (Nmcache_engine.Json.String "nope") = None);
  let f = Fault.make ~kind:Fault.Injected ~stage:"experiment" "schemes" in
  Alcotest.(check string) "one-line rendering" "[injected] experiment: schemes"
    (Fault.to_string f)

let test_of_exn_classification () =
  let f = Fault.make ~kind:Fault.Non_finite ~stage:"fit.delay" "nan" in
  Alcotest.(check bool) "a Fault passes through unchanged" true
    (Fault.compare (Fault.of_exn ~stage:"elsewhere" (Fault.Fault f)) f = 0);
  let c = Fault.of_exn ~stage:"stage.x" (Failure "boom") in
  Alcotest.(check bool) "other exceptions become Crashed" true (c.Fault.kind = Fault.Crashed);
  Alcotest.(check string) "boundary stage kept" "stage.x" c.Fault.stage

let test_fault_log_canonical_order () =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  let late = Fault.make ~kind:Fault.Injected ~stage:"simulate" "key-z" in
  let early = Fault.make ~kind:Fault.Crashed ~stage:"experiment" "key-a" in
  Fault.record late;
  Fault.record early;
  (match Fault.recorded () with
  | [ a; b ] ->
    Alcotest.(check bool) "log keeps record order" true
      (Fault.compare a late = 0 && Fault.compare b early = 0)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 recorded faults, got %d" (List.length l)));
  match List.sort Fault.compare (Fault.recorded ()) with
  | [ a; b ] ->
    Alcotest.(check bool) "canonical order sorts by stage first" true
      (Fault.compare a early = 0 && Fault.compare b late = 0)
  | _ -> Alcotest.fail "sort changed the length"

(* --- Faultpoint: spec parsing and deterministic draws -------------------- *)

let test_spec_parsing () =
  Fun.protect ~finally:Faultpoint.clear @@ fun () ->
  Faultpoint.clear ();
  Alcotest.(check bool) "disarmed by default" false (Faultpoint.active ());
  Alcotest.(check bool) "hit is a nop when disarmed" true
    (try
       Faultpoint.hit ~point:"experiment" ~key:"schemes" ();
       true
     with Fault.Fault _ -> false);
  (match Faultpoint.configure "experiment=schemes, fit.leak:0.25 ,anneal,seed:7" with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "armed" true (Faultpoint.active ());
  Alcotest.(check bool) "spec remembered" true (Faultpoint.spec () <> None);
  List.iter
    (fun bad ->
      match Faultpoint.configure bad with
      | Ok () -> Alcotest.fail ("accepted bad spec: " ^ bad)
      | Error _ ->
        Alcotest.(check bool)
          ("rejected spec leaves previous arming: " ^ bad)
          true (Faultpoint.active ()))
    [
      "simulate:banana";
      "simulate:1.5";
      "simulate:-0.25";
      "seed:pi";
      "=key";
      ":0.5" (* a probability arm still needs a point name *);
      "experiment=schemes,:1.0" (* ...also when hiding behind a valid entry *);
    ]

let test_spec_arm_semantics () =
  Fun.protect ~finally:Faultpoint.clear @@ fun () ->
  let fires spec ~point ~key =
    (match Faultpoint.configure spec with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg);
    Faultpoint.should_fire ~point ~key ()
  in
  Alcotest.(check bool) "p:0 never fires" false
    (fires "simulate:0.0" ~point:"simulate" ~key:"anything");
  Alcotest.(check bool) "p:1 always fires" true
    (fires "simulate:1.0" ~point:"simulate" ~key:"anything");
  Alcotest.(check bool) "key arm misses other keys" false
    (fires "experiment=schemes" ~point:"experiment" ~key:"fig1");
  (* duplicate points OR together: each arm gets its own trigger *)
  Alcotest.(check bool) "duplicate keyed arms, first key" true
    (fires "experiment=schemes,experiment=fig1" ~point:"experiment" ~key:"schemes");
  Alcotest.(check bool) "duplicate keyed arms, second key" true
    (fires "experiment=schemes,experiment=fig1" ~point:"experiment" ~key:"fig1");
  Alcotest.(check bool) "duplicate keyed arms, absent key" false
    (fires "experiment=schemes,experiment=fig1" ~point:"experiment" ~key:"l2sweep");
  Alcotest.(check bool) "always-arm duplicate overrides a keyed miss" true
    (fires "experiment=schemes,experiment" ~point:"experiment" ~key:"l2sweep");
  (* later seed entries rebind the draw stream for probability arms *)
  let with_seed s =
    (match Faultpoint.configure (Printf.sprintf "seed:%d,simulate:0.5" s) with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg);
    List.init 64 (fun i ->
        Faultpoint.should_fire ~point:"simulate" ~key:(string_of_int i) ())
  in
  let a = with_seed 1 and b = with_seed 1 and c = with_seed 2 in
  Alcotest.(check bool) "same seed, same draws" true (a = b);
  Alcotest.(check bool) "different seed, different draws" true (a <> c)

let test_env_configuration () =
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv Faultpoint.env_var "";
      Faultpoint.clear ())
  @@ fun () ->
  Unix.putenv Faultpoint.env_var "";
  Alcotest.(check bool) "empty env is not an arming" true
    (Faultpoint.configure_from_env () = Ok false);
  Unix.putenv Faultpoint.env_var "experiment=schemes";
  Alcotest.(check bool) "env spec arms" true (Faultpoint.configure_from_env () = Ok true);
  Alcotest.(check bool) "active after env arm" true (Faultpoint.active ());
  Unix.putenv Faultpoint.env_var "simulate:nope";
  Alcotest.(check bool) "bad env spec is an Error" true
    (match Faultpoint.configure_from_env () with Error _ -> true | Ok _ -> false)

let test_injection_determinism () =
  with_injection "simulate:0.4,seed:3" @@ fun () ->
  let keys = List.init 64 (fun i -> Printf.sprintf "sim:key-%d" i) in
  let draw_all () = List.map (fun key -> Faultpoint.should_fire ~point:"simulate" ~key ()) keys in
  let first = draw_all () in
  Alcotest.(check bool) "selection is a pure function of the key" true (first = draw_all ());
  let fired = List.length (List.filter Fun.id first) in
  Alcotest.(check bool)
    (Printf.sprintf "p=0.4 selects some but not all keys (got %d/64)" fired)
    true
    (fired > 0 && fired < 64);
  Alcotest.(check bool) "other points unaffected" false
    (List.exists (fun key -> Faultpoint.should_fire ~point:"anneal" ~key ()) keys)

let test_injection_arms () =
  (* Always fires on every key; Prob 0 never; Key only on the exact key *)
  with_injection "experiment,fit.leak:0.0,simulate=sim:exact" @@ fun () ->
  Alcotest.(check bool) "bare point always fires" true
    (Faultpoint.should_fire ~point:"experiment" ~key:"anything" ());
  Alcotest.(check bool) "probability zero never fires" false
    (Faultpoint.should_fire ~point:"fit.leak" ~key:"anything" ());
  Alcotest.(check bool) "exact key fires" true
    (Faultpoint.should_fire ~point:"simulate" ~key:"sim:exact" ());
  Alcotest.(check bool) "other keys do not" false
    (Faultpoint.should_fire ~point:"simulate" ~key:"sim:other" ());
  Fault.reset ();
  (try
     Faultpoint.hit ~point:"experiment" ~key:"schemes" ();
     Alcotest.fail "armed hit did not raise"
   with Fault.Fault f ->
     Alcotest.(check bool) "raised fault is Injected" true (f.Fault.kind = Fault.Injected);
     Alcotest.(check string) "stage is the point" "experiment" f.Fault.stage;
     Alcotest.(check string) "detail is the key" "schemes" f.Fault.detail)

(* --- partial-result sweeps ----------------------------------------------- *)

let flaky i = if i mod 3 = 0 then failwith (Printf.sprintf "kernel %d" i) else i * i

let test_pool_partial_results () =
  let input = Array.init 48 Fun.id in
  let shape jobs =
    Array.map
      (function Ok v -> Printf.sprintf "ok:%d" v | Error e -> "err:" ^ Printexc.to_string e)
      (Pool.map_array_result (Pool.create ~jobs) flaky input)
  in
  let seq = shape 1 in
  Array.iteri
    (fun i cell ->
      let expected = if i mod 3 = 0 then "err:Failure(\"kernel " else "ok:" in
      Alcotest.(check bool)
        (Printf.sprintf "slot %d settled as %s..." i expected)
        true
        (String.length cell >= String.length expected
        && String.sub cell 0 (String.length expected) = expected))
    seq;
  List.iter
    (fun jobs ->
      Alcotest.(check (array string))
        (Printf.sprintf "jobs=%d partial results equal sequential" jobs)
        seq (shape jobs))
    [ 2; 4; 8 ]

let test_sweep_result_records_faults () =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  let task =
    Task.make ~name:"chaos.kernel" (fun i ->
        if i = 2 then Fault.error ~kind:Fault.Non_finite ~stage:"chaos.inner" "nan at 2"
        else if i = 5 then failwith "plain crash"
        else i + 100)
  in
  let out = Sweep.map_array_result ~pool:(Pool.create ~jobs:4) task (Array.init 8 Fun.id) in
  Alcotest.(check int) "healthy slot" 100 (match out.(0) with Ok v -> v | Error _ -> -1);
  (match out.(2) with
  | Error f ->
    Alcotest.(check bool) "typed fault kept its kind" true (f.Fault.kind = Fault.Non_finite);
    Alcotest.(check string) "typed fault kept its stage" "chaos.inner" f.Fault.stage
  | Ok _ -> Alcotest.fail "slot 2 should have faulted");
  (match out.(5) with
  | Error f ->
    Alcotest.(check bool) "crash classified" true (f.Fault.kind = Fault.Crashed);
    Alcotest.(check string) "crash attributed to the task" "chaos.kernel" f.Fault.stage
  | Ok _ -> Alcotest.fail "slot 5 should have faulted");
  Alcotest.(check int) "both faults recorded in the log" 2
    (List.length (Fault.recorded ()))

let test_injected_faults_never_hang_pool () =
  (* every key fires: all slots fault, all domains join, call returns *)
  with_injection "chaos.point" @@ fun () ->
  let task =
    Task.make ~name:"chaos.sweep" (fun i ->
        Faultpoint.hit ~point:"chaos.point" ~key:(string_of_int i) ();
        i)
  in
  let out = Sweep.map_array_result ~pool:(Pool.create ~jobs:4) task (Array.init 32 Fun.id) in
  Array.iteri
    (fun i slot ->
      match slot with
      | Error f ->
        Alcotest.(check bool)
          (Printf.sprintf "slot %d injected" i)
          true
          (f.Fault.kind = Fault.Injected && f.Fault.detail = string_of_int i)
      | Ok _ -> Alcotest.fail "armed hit survived")
    out

let test_injected_fault_never_poisons_memo () =
  with_injection "memo.compute=poisoned" @@ fun () ->
  let memo : int Memo.t = Memo.create ~name:"test.memo-chaos" () in
  let computed = Atomic.make 0 in
  let get key =
    Memo.find_or_compute memo key (fun () ->
        Atomic.incr computed;
        Faultpoint.hit ~point:"memo.compute" ~key ();
        String.length key)
  in
  (* four domains race the same armed key: each retry recomputes (the
     Pending marker is dropped on failure) and fails identically *)
  let results =
    Pool.map_array_result (Pool.create ~jobs:4) (fun _ -> get "poisoned") (Array.make 4 ())
  in
  Array.iter
    (fun slot ->
      match slot with
      | Error (Fault.Fault f) ->
        Alcotest.(check bool) "every waiter saw the injected fault" true
          (f.Fault.kind = Fault.Injected)
      | Error e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e)
      | Ok _ -> Alcotest.fail "armed compute returned a value")
    results;
  Alcotest.(check int) "every caller recomputed (Pending was dropped)" 4
    (Atomic.get computed);
  Alcotest.(check int) "no value cached for the failed key" 0 (Memo.length memo);
  Faultpoint.clear ();
  Alcotest.(check int) "key recovers after disarming" 8 (get "poisoned");
  Alcotest.(check int) "one cached entry now" 1 (Memo.length memo)

(* --- run_many_result: per-experiment status, byte-identical renders ------ *)

let synthetic_experiments =
  let artefact label ctx =
    ignore (ctx : Core.Context.t);
    [ Core.Report.note ("artefact " ^ label) ]
  in
  List.map
    (fun id ->
      {
        Core.Experiments.id;
        title = "synthetic " ^ id;
        paper_ref = "test";
        run = artefact id;
      })
    [ "syn-a"; "syn-b"; "syn-c" ]

let render_statuses results =
  String.concat "\n"
    (List.map
       (fun ((e : Core.Experiments.t), status) ->
         match status with
         | Ok artefacts -> e.Core.Experiments.id ^ ": " ^ Core.Report.render artefacts
         | Error f -> e.Core.Experiments.id ^ ": FAULT " ^ Fault.to_string f)
       results)

let test_run_many_result_partial () =
  with_injection "experiment=syn-b" @@ fun () ->
  let ctx = Core.Context.quick () in
  let run () = render_statuses (Core.Experiments.run_many_result ctx synthetic_experiments) in
  let seq = Executor.with_jobs 1 run in
  let par = Executor.with_jobs 4 run in
  Alcotest.(check bool) "jobs=4 renders the same bytes" true (String.equal seq par);
  List.iter
    (fun (id, ok) ->
      let needle = if ok then id ^ ": -- artefact " ^ id else id ^ ": FAULT [injected]" in
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("status of " ^ id) true (contains seq needle))
    [ ("syn-a", true); ("syn-b", false); ("syn-c", true) ]

let test_run_many_fail_fast_raises () =
  with_injection "experiment=syn-b" @@ fun () ->
  let ctx = Core.Context.quick () in
  match Core.Experiments.run_many ctx synthetic_experiments with
  | _ -> Alcotest.fail "fail-fast run_many should re-raise the injected fault"
  | exception Fault.Fault f ->
    Alcotest.(check bool) "aborting fault is the injected one" true
      (f.Fault.kind = Fault.Injected && f.Fault.detail = "syn-b")

(* --- fitter guards ---------------------------------------------------------- *)

(* one real 35-sample component: the 16 KB L1's array + sense *)
let fit_samples =
  lazy
    (let tech = Tech.bptm65 in
     let circuit =
       Cache_model.make tech (Config.make ~size_bytes:(16 * 1024) ~assoc:4 ~block_bytes:64 ())
     in
     let vths = Minimize.linspace ~lo:tech.Tech.vth_min ~hi:tech.Tech.vth_max ~steps:6 in
     let toxs = Minimize.linspace ~lo:tech.Tech.tox_min ~hi:tech.Tech.tox_max ~steps:4 in
     Cache_model.characterize circuit Component.Array_sense ~vths ~toxs)

(* each fit: its stage, the summary field it fits, and a setter for it *)
let fits =
  [
    ( "fit.leak",
      "leak_w",
      (fun (s : Component.summary) v -> { s with Component.leak_w = v }),
      fun samples -> ignore (Fitter.fit_leak samples) );
    ( "fit.delay",
      "delay",
      (fun (s : Component.summary) v -> { s with Component.delay = v }),
      fun samples -> ignore (Fitter.fit_delay samples) );
    ( "fit.energy",
      "dyn_energy",
      (fun (s : Component.summary) v -> { s with Component.dyn_energy = v }),
      fun samples -> ignore (Fitter.fit_energy samples) );
  ]

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let expect_fault ~kind ~stage label f =
  match f () with
  | () -> Alcotest.fail (label ^ ": no fault raised")
  | exception Fault.Fault fault ->
    Alcotest.(check (pair string string))
      (label ^ ": kind and stage")
      (Fault.kind_name kind, stage)
      (Fault.kind_name fault.Fault.kind, fault.Fault.stage);
    fault.Fault.detail

(* counters moved by [f]: (fit attempts, converged attempts, retries) *)
let attempts f =
  let c = Metrics.counter_value in
  let fits0 = c "lm.fits" and conv0 = c "lm.converged" and retry0 = c "retry.attempts" in
  let result = f () in
  (result, (c "lm.fits" - fits0, c "lm.converged" - conv0, c "retry.attempts" - retry0))

let test_fit_rejects_non_finite () =
  let base = Lazy.force fit_samples in
  let poison i set = Array.mapi (fun j sample -> if j = i then set sample else sample) base in
  List.iter
    (fun (stage, field, set_value, fit) ->
      List.iter
        (fun (i, name, v, set) ->
          let label = Printf.sprintf "%s, sample %d %s = %g" stage i name v in
          let detail =
            expect_fault ~kind:Fault.Non_finite ~stage label (fun () -> fit (poison i set))
          in
          Alcotest.(check bool)
            (label ^ ": detail names the sample and field")
            true
            (has_sub detail (Printf.sprintf "sample %d %s is" i name)))
        [
          (4, field, Float.nan, fun (k, s) -> (k, set_value s Float.nan));
          (17, field, Float.infinity, fun (k, s) -> (k, set_value s Float.infinity));
          ( 0,
            "vth",
            Float.nan,
            fun ((k : Component.knob), s) -> ({ k with Component.vth = Float.nan }, s) );
          ( 34,
            "tox",
            Float.neg_infinity,
            fun ((k : Component.knob), s) -> ({ k with Component.tox = Float.neg_infinity }, s) );
        ])
    fits

let test_fit_singular_design () =
  (* ToxÅ = 0 everywhere: the delay and energy designs get an all-zero
     Tox column, and the leakage design's exp(a2·Tox) column repeats
     the constant one *)
  let flat =
    Array.map
      (fun ((k : Component.knob), s) -> ({ k with Component.tox = 0.0 }, s))
      (Lazy.force fit_samples)
  in
  List.iter
    (fun (stage, _, _, fit) ->
      ignore (expect_fault ~kind:Fault.Singular_system ~stage stage (fun () -> fit flat)))
    fits

let test_fit_healthy_one_attempt () =
  let samples = Lazy.force fit_samples in
  List.iter
    (fun (stage, _, _, fit) ->
      (* the energy fit is linear: no attempt to count *)
      if stage <> "fit.energy" then begin
        let (), counts = attempts (fun () -> fit samples) in
        Alcotest.(check (triple int int int)) (stage ^ ": attempts, converged, retries") (1, 1, 0)
          counts
      end)
    fits

let test_fit_retry_next_start () =
  let samples = Lazy.force fit_samples in
  let healthy = Fitter.fit_delay samples in
  (* a point=KEY arm fires on attempt 1 only: attempt 2 starts from the
     next-best grid point and still converges *)
  with_injection ("fit.delay=" ^ Fitter.samples_key samples) @@ fun () ->
  let faults0 = List.length (Fault.recorded ()) in
  let (m, _), counts = attempts (fun () -> Fitter.fit_delay samples) in
  Alcotest.(check (triple int int int)) "one fit attempt ran, converged, after one retry"
    (1, 1, 1) counts;
  let close a b = Float.abs (a -. b) <= 1e-6 *. Float.abs b in
  let (h : Nmcache_fit.Model.delay), _ = healthy in
  Alcotest.(check bool) "the next start reaches the same optimum" true
    (close m.Nmcache_fit.Model.k0 h.Nmcache_fit.Model.k0
    && close m.Nmcache_fit.Model.k1 h.Nmcache_fit.Model.k1
    && close m.Nmcache_fit.Model.kappa_v h.Nmcache_fit.Model.kappa_v
    && close m.Nmcache_fit.Model.k2 h.Nmcache_fit.Model.k2);
  Alcotest.(check int) "no fault recorded" faults0 (List.length (Fault.recorded ()))

(* --- fitted-model domain enforcement -------------------------------------- *)

let small_fitted =
  lazy
    (let config = Config.make ~size_bytes:(4 * 1024) ~assoc:2 ~block_bytes:64 () in
     Fitted_cache.characterize_and_fit ~vth_steps:2 ~tox_steps:2
       (Cache_model.make Tech.bptm65 config))

let test_out_of_domain () =
  let fitted = Lazy.force small_fitted in
  let vth_lo, vth_hi = Fitted_cache.vth_range fitted in
  let tox_lo, tox_hi = Fitted_cache.tox_range fitted in
  (* evaluating on the fitted box (including its corners) is fine *)
  List.iter
    (fun (vth, tox) ->
      Alcotest.(check bool)
        (Printf.sprintf "in-domain eval at (%.2f, %.2e)" vth tox)
        true
        (Float.is_finite
           (Fitted_cache.leak_of fitted Component.Array_sense (Component.knob ~vth ~tox))))
    [ (vth_lo, tox_lo); (vth_hi, tox_hi); ((vth_lo +. vth_hi) /. 2.0, tox_lo) ];
  List.iter
    (fun (label, knob) ->
      match Fitted_cache.leak_of fitted Component.Array_sense knob with
      | _ -> Alcotest.fail (label ^ " should be out of domain")
      | exception Fault.Fault f ->
        Alcotest.(check bool)
          (label ^ " raises Out_of_domain")
          true
          (f.Fault.kind = Fault.Out_of_domain && f.Fault.stage = "model.eval"))
    [
      ("vth below range", Component.knob ~vth:(vth_lo -. 0.05) ~tox:tox_lo);
      ("vth above range", Component.knob ~vth:(vth_hi +. 0.05) ~tox:tox_lo);
      ("tox above range", Component.knob ~vth:vth_lo ~tox:(tox_hi +. Units.angstrom 1.0));
    ];
  Alcotest.(check bool) "delay_of checks the domain too" true
    (match
       Fitted_cache.delay_of fitted Component.Array_sense
         (Component.knob ~vth:(vth_hi +. 0.05) ~tox:tox_lo)
     with
    | _ -> false
    | exception Fault.Fault f -> f.Fault.kind = Fault.Out_of_domain)

let suite =
  [
    Alcotest.test_case "fault kind names" `Quick test_kind_names;
    Alcotest.test_case "fault json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "of_exn classification" `Quick test_of_exn_classification;
    Alcotest.test_case "fault log canonical order" `Quick test_fault_log_canonical_order;
    Alcotest.test_case "faultpoint spec parsing" `Quick test_spec_parsing;
    Alcotest.test_case "faultpoint arm semantics" `Quick test_spec_arm_semantics;
    Alcotest.test_case "faultpoint env configuration" `Quick test_env_configuration;
    Alcotest.test_case "injection is key-deterministic" `Quick test_injection_determinism;
    Alcotest.test_case "injection arms" `Quick test_injection_arms;
    Alcotest.test_case "pool partial results" `Quick test_pool_partial_results;
    Alcotest.test_case "sweep records typed faults" `Quick test_sweep_result_records_faults;
    Alcotest.test_case "injected faults never hang the pool" `Quick
      test_injected_faults_never_hang_pool;
    Alcotest.test_case "injected fault never poisons the memo" `Quick
      test_injected_fault_never_poisons_memo;
    Alcotest.test_case "run_many_result partial + byte-identical" `Quick
      test_run_many_result_partial;
    Alcotest.test_case "run_many fail-fast re-raises" `Quick test_run_many_fail_fast_raises;
    Alcotest.test_case "fit rejects non-finite samples" `Quick test_fit_rejects_non_finite;
    Alcotest.test_case "fit healthy fit takes one attempt" `Quick test_fit_healthy_one_attempt;
    Alcotest.test_case "fit retry recovers from the next start" `Quick test_fit_retry_next_start;
    Alcotest.test_case "fit singular design raises" `Quick test_fit_singular_design;
    Alcotest.test_case "fitted models enforce their domain" `Slow test_out_of_domain;
  ]
