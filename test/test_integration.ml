(* End-to-end tests: the paper's qualitative claims must hold when the
   full pipelines run on the reduced (quick) context.  These are the
   "shape" assertions of DESIGN.md §4. *)

module Units = Nmcache_physics.Units
module Component = Nmcache_geometry.Component
module Scheme = Nmcache_opt.Scheme
module Tuple_problem = Nmcache_opt.Tuple_problem
module Model = Nmcache_fit.Model
module Fitted_cache = Nmcache_fit.Fitted_cache

let ctx = lazy (Core.Context.quick ())

(* --- Figure 1 ---------------------------------------------------------- *)

let test_fig1_series_shape () =
  let series = Core.Single_cache.figure1_series (Lazy.force ctx) in
  Alcotest.(check int) "four curves" 4 (List.length series);
  List.iter
    (fun (label, points) ->
      Alcotest.(check bool) (label ^ " non-trivial") true (List.length points >= 3);
      (* each curve is a trade-off: sorted by delay with leakage falling *)
      let rec check = function
        | (x1, y1) :: ((x2, y2) :: _ as rest) ->
          Alcotest.(check bool) (label ^ " sorted in delay") true (x1 <= x2);
          Alcotest.(check bool) (label ^ " leakage falls along the curve") true (y1 >= y2);
          check rest
        | _ -> ()
      in
      check points)
    series

let test_fig1_tox_is_stronger_leakage_knob () =
  (* the paper's reading: at matched delay budgets the Tox sweep moves
     leakage further than the Vth sweep; compare endpoint ratios *)
  let series = Core.Single_cache.figure1_series (Lazy.force ctx) in
  let ratio label =
    let points = List.assoc label series in
    let ys = List.map snd points in
    let top = List.fold_left Float.max Float.neg_infinity ys in
    let bottom = List.fold_left Float.min Float.infinity ys in
    top /. Float.max bottom 1e-12
  in
  (* sweeping Tox at fixed Vth=0.4V spans more decades than sweeping Vth
     at fixed thin Tox=10A *)
  Alcotest.(check bool) "Tox sweep > Vth sweep at the quiet corner" true
    (ratio "Vth=400mV" > ratio "Tox=10A")

let test_fig1_vth_is_the_delay_knob () =
  (* delay span of the Vth sweep exceeds that of the Tox sweep *)
  let series = Core.Single_cache.figure1_series (Lazy.force ctx) in
  let span label =
    let xs = List.map fst (List.assoc label series) in
    List.fold_left Float.max Float.neg_infinity xs -. List.fold_left Float.min Float.infinity xs
  in
  Alcotest.(check bool) "Vth delay span wider" true
    (Float.max (span "Tox=10A") (span "Tox=14A") > Float.max (span "Vth=200mV") (span "Vth=400mV"))

(* --- Schemes (T1) -------------------------------------------------------- *)

let test_scheme_claims () =
  let rows = Core.Single_cache.scheme_rows (Lazy.force ctx) () in
  Alcotest.(check bool) "several budgets" true (List.length rows >= 5);
  List.iter
    (fun (row : Core.Single_cache.scheme_row) ->
      match
        ( List.assoc Scheme.Independent row.Core.Single_cache.results,
          List.assoc Scheme.Split row.Core.Single_cache.results,
          List.assoc Scheme.Uniform row.Core.Single_cache.results )
      with
      | Some i, Some ii, Some iii ->
        Alcotest.(check bool) "I <= II" true (i.Scheme.leak_w <= ii.Scheme.leak_w *. 1.0001);
        Alcotest.(check bool) "II <= III" true (ii.Scheme.leak_w <= iii.Scheme.leak_w *. 1.0001);
        (* the paper's hallmark: conservative arrays, fast peripherals *)
        Alcotest.(check bool) "II array conservative" true
          (Core.Single_cache.array_is_conservative ii.Scheme.assignment)
      | _ -> ())
    rows

let test_scheme_ii_close_to_i () =
  (* "scheme II is only slightly behind scheme I": within 2x at mid budgets *)
  let rows = Core.Single_cache.scheme_rows (Lazy.force ctx) () in
  let mid = List.nth rows (List.length rows / 2) in
  match
    ( List.assoc Scheme.Independent mid.Core.Single_cache.results,
      List.assoc Scheme.Split mid.Core.Single_cache.results )
  with
  | Some i, Some ii ->
    Alcotest.(check bool)
      (Printf.sprintf "II/I = %.2f < 2" (ii.Scheme.leak_w /. i.Scheme.leak_w))
      true
      (ii.Scheme.leak_w /. i.Scheme.leak_w < 2.0)
  | _ -> Alcotest.fail "mid budget should be feasible"

(* --- L2 sweeps (T2/T3) ----------------------------------------------------- *)

let l2_sweep_uniform = lazy (Core.Two_level.l2_sweep (Lazy.force ctx) ~scheme:Scheme.Uniform)
let l2_sweep_split = lazy (Core.Two_level.l2_sweep (Lazy.force ctx) ~scheme:Scheme.Split)

let test_l2_sweep_feasibility_monotone () =
  (* bigger L2 => lower m2 => looser budget: once feasible, stays feasible *)
  let sweep = Lazy.force l2_sweep_uniform in
  let seen_feasible = ref false in
  List.iter
    (fun (r : Core.Two_level.l2_row) ->
      (match r.Core.Two_level.total_leak with
      | Some _ -> seen_feasible := true
      | None ->
        Alcotest.(check bool) "no feasibility gap" false !seen_feasible))
    sweep.Core.Two_level.rows

let test_m2_of_curve_diagnosable () =
  let curve =
    {
      Nmcache_workload.Missrate.workload = "toy";
      l1_size = 16384;
      l1_miss_rate = 0.05;
      l2_sizes = [| 1024; 2048 |];
      l2_local_rates = [| 0.5; 0.25 |];
    }
  in
  Alcotest.(check (float 0.0)) "exact size" 0.25 (Core.Two_level.m2_of_curve curve 2048);
  match Core.Two_level.m2_of_curve curve 4096 with
  | _ -> Alcotest.fail "unsimulated size must raise"
  | exception Invalid_argument msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    let mentions s =
      Alcotest.(check bool) ("message mentions " ^ s) true (contains msg s)
    in
    mentions "4096";
    mentions "toy";
    mentions "1024, 2048"

let test_l2_m2_decreasing () =
  let sweep = Lazy.force l2_sweep_uniform in
  let rec check = function
    | (a : Core.Two_level.l2_row) :: (b :: _ as rest) ->
      Alcotest.(check bool) "m2 non-increasing in size" true
        (b.Core.Two_level.m2 <= a.Core.Two_level.m2 +. 1e-9);
      check rest
    | _ -> ()
  in
  check sweep.Core.Two_level.rows

let test_l2_turnover () =
  (* the largest L2 is never the leakage optimum (the paper's turnover) *)
  let sweep = Lazy.force l2_sweep_uniform in
  match Core.Two_level.best_l2_size sweep with
  | None -> Alcotest.fail "no feasible L2"
  | Some best ->
    let largest =
      List.fold_left (fun acc (r : Core.Two_level.l2_row) -> max acc r.Core.Two_level.l2_size)
        0 sweep.Core.Two_level.rows
    in
    Alcotest.(check bool) "optimum below the largest size" true (best < largest)

let test_l2_split_never_worse () =
  let u = Lazy.force l2_sweep_uniform and s = Lazy.force l2_sweep_split in
  List.iter2
    (fun (ru : Core.Two_level.l2_row) (rs : Core.Two_level.l2_row) ->
      match (ru.Core.Two_level.total_leak, rs.Core.Two_level.total_leak) with
      | Some lu, Some ls ->
        Alcotest.(check bool) "scheme II never worse" true (ls <= lu *. 1.0001)
      | None, Some _ -> Alcotest.fail "split cannot be feasible where uniform is not (same delay range)"
      | _ -> ())
    u.Core.Two_level.rows s.Core.Two_level.rows

let test_l2_bigger_more_conservative () =
  (* paper: the leakage-optimal L2 size can afford knobs at least as
     conservative as the smallest feasible size's (whose tight budget
     forces aggressive assignments) *)
  let sweep = Lazy.force l2_sweep_uniform in
  let knob_of size =
    List.find_map
      (fun (r : Core.Two_level.l2_row) ->
        if r.Core.Two_level.l2_size = size then
          Option.map
            (fun (res : Scheme.result) -> res.Scheme.assignment.Component.array)
            r.Core.Two_level.result
        else None)
      sweep.Core.Two_level.rows
  in
  let smallest_feasible =
    List.find_map
      (fun (r : Core.Two_level.l2_row) ->
        if r.Core.Two_level.result <> None then Some r.Core.Two_level.l2_size else None)
      sweep.Core.Two_level.rows
  in
  match (Core.Two_level.best_l2_size sweep, smallest_feasible) with
  | Some best, Some smallest ->
    let kb = Option.get (knob_of best) and ks = Option.get (knob_of smallest) in
    Alcotest.(check bool) "optimal size at least as conservative" true
      (kb.Component.vth >= ks.Component.vth -. 1e-9
      && kb.Component.tox >= ks.Component.tox -. 1e-15)
  | _ -> Alcotest.fail "no feasible size"

(* --- L1 sweep (T4) ----------------------------------------------------------- *)

let test_l1_small_is_optimal () =
  let sweep = Core.Two_level.l1_sweep_rows (Lazy.force ctx) in
  match Core.Two_level.best_l1_size sweep with
  | None -> Alcotest.fail "no feasible L1"
  | Some best ->
    Alcotest.(check bool)
      (Printf.sprintf "small L1 optimal (got %dK)" (best / 1024))
      true
      (best <= 16 * 1024)

let test_l1_miss_rates_low_and_falling () =
  let sweep = Core.Two_level.l1_sweep_rows (Lazy.force ctx) in
  let rates = List.map (fun (r : Core.Two_level.l1_row) -> r.Core.Two_level.m1) sweep.Core.Two_level.l1_rows in
  (match (rates, List.rev rates) with
  | first :: _, last :: _ ->
    Alcotest.(check bool) "m1 falls with size" true (last < first)
  | _ -> Alcotest.fail "empty sweep");
  List.iter
    (fun m -> Alcotest.(check bool) "m1 < 30%" true (m < 0.30))
    rates

(* --- Figure 2 (tuple problem) -------------------------------------------------- *)

let fig2 = lazy (Core.Tuple_study.figure2_curves (Lazy.force ctx))

let curve_of spec_pred curves =
  List.find_map
    (fun ((s : Tuple_problem.spec), pts) -> if spec_pred s then Some pts else None)
    curves

let test_fig2_all_curves_present () =
  let curves = Lazy.force fig2 in
  Alcotest.(check int) "five budgets" 5 (List.length curves);
  List.iter
    (fun (_, pts) -> Alcotest.(check bool) "non-empty frontier" true (pts <> []))
    curves

let test_fig2_2t3v_at_least_as_good_as_2t2v () =
  let curves = Lazy.force fig2 in
  let c23 = Option.get (curve_of (fun s -> s.Tuple_problem.n_vth = 3 && s.Tuple_problem.n_tox = 2) curves) in
  let c22 = Option.get (curve_of (fun s -> s.Tuple_problem.n_vth = 2 && s.Tuple_problem.n_tox = 2) curves) in
  (* at every 2T2V frontier point the richer 2T3V frontier must match it *)
  List.iter
    (fun (p : Tuple_problem.point) ->
      match Core.Tuple_study.energy_at c23 ~amat:(p.Tuple_problem.amat *. 1.0000001) with
      | None -> Alcotest.fail "2T3V misses an AMAT the poorer set reaches"
      | Some e ->
        Alcotest.(check bool) "2T3V <= 2T2V" true (e <= p.Tuple_problem.energy *. 1.0001))
    c22

let test_fig2_dual_vth_near_optimal_at_loose_amat () =
  (* "dual Tox + dual Vth is sufficient": within 15% of 2T3V at the
     loose end of the frontier *)
  let curves = Lazy.force fig2 in
  let c23 = Option.get (curve_of (fun s -> s.Tuple_problem.n_vth = 3 && s.Tuple_problem.n_tox = 2) curves) in
  let c22 = Option.get (curve_of (fun s -> s.Tuple_problem.n_vth = 2 && s.Tuple_problem.n_tox = 2) curves) in
  let loose =
    List.fold_left
      (fun acc (p : Tuple_problem.point) -> Float.max acc p.Tuple_problem.amat)
      Float.neg_infinity (c23 @ c22)
  in
  match (Core.Tuple_study.energy_at c22 ~amat:loose, Core.Tuple_study.energy_at c23 ~amat:loose) with
  | Some e22, Some e23 ->
    Alcotest.(check bool)
      (Printf.sprintf "2T2V within 15%% of 2T3V (%.1f vs %.1f pJ)" (Units.to_pj e22)
         (Units.to_pj e23))
      true
      (e22 <= e23 *. 1.15)
  | _ -> Alcotest.fail "frontiers should cover the loose end"

let test_fig2_dual_vth_beats_dual_tox_when_single_knob () =
  (* "a single Tox + dual Vth outperforms single Vth + dual Tox" at the
     relaxed end of the trade-off *)
  let curves = Lazy.force fig2 in
  let c12 = Option.get (curve_of (fun s -> s.Tuple_problem.n_vth = 2 && s.Tuple_problem.n_tox = 1) curves) in
  let c21 = Option.get (curve_of (fun s -> s.Tuple_problem.n_vth = 1 && s.Tuple_problem.n_tox = 2) curves) in
  let loose =
    List.fold_left
      (fun acc (p : Tuple_problem.point) -> Float.max acc p.Tuple_problem.amat)
      Float.neg_infinity (c12 @ c21)
  in
  match (Core.Tuple_study.energy_at c12 ~amat:loose, Core.Tuple_study.energy_at c21 ~amat:loose) with
  | Some dual_vth, Some dual_tox ->
    Alcotest.(check bool)
      (Printf.sprintf "1T+2V (%.1f pJ) <= 2T+1V (%.1f pJ)" (Units.to_pj dual_vth)
         (Units.to_pj dual_tox))
      true
      (dual_vth <= dual_tox *. 1.02)
  | _ -> Alcotest.fail "frontiers should cover the loose end"

(* --- fit audit ------------------------------------------------------------------ *)

let test_fit_quality_thresholds () =
  let c = Lazy.force ctx in
  let fitted = Core.Context.fitted c (Core.Context.l1_config c ()) in
  let q = Fitted_cache.worst_quality fitted in
  Alcotest.(check bool)
    (Printf.sprintf "worst component R2 %.4f > 0.9" q.Model.r2)
    true (q.Model.r2 > 0.9)

(* --- experiments registry --------------------------------------------------------- *)

let test_registry_complete () =
  Alcotest.(check int) "six paper artefacts" 6 (List.length Core.Experiments.paper);
  Alcotest.(check int) "eighteen experiments" 18 (List.length Core.Experiments.all);
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " registered") true (Core.Experiments.find id <> None))
    [ "fig1"; "schemes"; "l2sweep"; "l2sweep2"; "l1sweep"; "fig2" ]

let test_summary_claims_hold () =
  (* the live claim checker is the top-level acceptance test *)
  let vs = Core.Summary.verdicts (Lazy.force ctx) in
  List.iter
    (fun (v : Core.Summary.verdict) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s [%s] -- %s" v.Core.Summary.claim v.Core.Summary.source
           v.Core.Summary.evidence)
        true v.Core.Summary.holds)
    vs

(* "Bigger L2s leak less" must be able to fail: a hand-built sweep whose
   smallest size is feasible and whose total leakage rises with size
   shows neither case of the claim. *)
let test_bigger_l2_verdict_can_fail () =
  let row (size_kb, m2, budget_ps, leak_mw) =
    let leak = Option.map (fun l -> l *. 1e-3) leak_mw in
    {
      Core.Two_level.l2_size = size_kb * 1024;
      m2;
      t_l2_budget = Option.map (fun b -> b *. 1e-12) budget_ps;
      result = None;
      l2_leak = leak;
      total_leak = leak;
    }
  in
  (* m2 falls and the budget grows with size in every sweep, so only the
     smallest row and the leakage trend decide *)
  let check what expected smallest leak_256 =
    let sweep =
      {
        Core.Two_level.target_amat = 2e-9;
        m1 = 0.08;
        t_l1 = 2.5e-10;
        l1_leak = 1e-3;
        rows =
          List.map row
            [ (256, 0.6, smallest, leak_256); (512, 0.55, Some 2000., Some 50.);
              (1024, 0.5, Some 3000., Some 90.) ];
      }
    in
    let v = Core.Summary.bigger_l2_leaks_less sweep in
    Alcotest.(check bool) (what ^ ": " ^ v.Core.Summary.evidence) expected v.Core.Summary.holds
  in
  check "leakage rising from a feasible smallest size fails" false (Some 1000.) (Some 30.);
  check "an infeasible smallest size holds" true None None;
  check "a size leaking more than the next holds" true (Some 1000.) (Some 60.)

let test_experiment_determinism () =
  (* full pipeline determinism: drop every memoised characterisation and
     re-run; the rendered tables must be byte-identical *)
  let c = Lazy.force ctx in
  let render () =
    Core.Report.render (Core.Single_cache.scheme_table c)
    ^ Core.Report.render (Core.Single_cache.figure1 c)
  in
  let first = render () in
  Core.Context.clear_memo ();
  let second = render () in
  Alcotest.(check bool) "byte-identical reruns" true (String.equal first second)

(* --- every search, pinned bit for bit --------------------------------------------- *)

(* MD5 of the hex-float results of every search over a fitted cache on
   the quick context: T1's scheme rows, the Uniform and Split L2 sweeps
   (T2/T3), the L1 sweep (T4), X9's anneal runs and Figure 2's fronts
   for the default and one per-workload miss-rate set, as computed when
   each search tabulated the fitted models itself, and recomputed when
   the traces behind the miss rates moved to rejection-inversion Zipf
   sampling (trace generation [ri1]).  Printed output rounds away the
   table layout and Figure 2's summation order that this guards. *)
let searches_known_md5 = "6d625dd48dd0367d6427d170d2addecf"

let test_searches_pinned () =
  let c = Lazy.force ctx in
  let b = Buffer.create (1 lsl 18) in
  let h x = Printf.bprintf b "%h " x in
  let opt f = function None -> Buffer.add_string b "- " | Some x -> f x in
  let knob (k : Component.knob) =
    h k.Component.vth;
    h k.Component.tox
  in
  let knobs a = List.iter (fun kind -> knob (Component.get a kind)) Component.all_kinds in
  let result (r : Scheme.result) =
    h r.Scheme.leak_w;
    h r.Scheme.access_time;
    knobs r.Scheme.assignment
  in
  List.iter
    (fun (row : Core.Single_cache.scheme_row) ->
      h row.Core.Single_cache.budget;
      List.iter (fun (_, r) -> opt result r) row.Core.Single_cache.results)
    (Core.Single_cache.scheme_rows c ());
  List.iter
    (fun scheme ->
      let s = Core.Two_level.l2_sweep c ~scheme in
      List.iter h [ s.target_amat; s.m1; s.t_l1; s.l1_leak ];
      List.iter
        (fun (r : Core.Two_level.l2_row) ->
          Printf.bprintf b "%d " r.l2_size;
          h r.m2;
          opt h r.t_l2_budget;
          opt result r.result;
          opt h r.l2_leak;
          opt h r.total_leak)
        s.rows)
    [ Scheme.Uniform; Scheme.Split ];
  let s = Core.Two_level.l1_sweep_rows c in
  h s.Core.Two_level.l1_target_amat;
  List.iter
    (fun (r : Core.Two_level.l1_row) ->
      Printf.bprintf b "%d " r.l1_size;
      h r.m1;
      opt h r.t_l1_budget;
      opt result r.l1_result;
      opt h r.l1_leak;
      opt h r.l1_total_leak)
    s.l1_rows;
  let tables = Core.Context.tables c (Core.Context.l1_config c ()) ~grid:c.Core.Context.grid in
  let fast = Scheme.fastest tables and slow = Scheme.slowest tables in
  List.iter
    (fun frac ->
      let budget = fast +. (frac *. (slow -. fast)) in
      match Scheme.minimize tables ~scheme:Scheme.Independent ~delay_budget:budget with
      | None -> Buffer.add_string b "- "
      | Some exact ->
        let module Anneal = Nmcache_opt.Anneal in
        result exact;
        let sa = Anneal.minimize_leakage tables ~delay_budget:budget () in
        h sa.Anneal.leak_w;
        h sa.Anneal.access_time;
        Printf.bprintf b "%b %d " sa.Anneal.feasible sa.Anneal.evaluations;
        knobs sa.Anneal.assignment)
    [ 0.05; 0.15; 0.3; 0.5; 0.75 ];
  List.iter
    (fun workloads ->
      List.iter
        (fun (_, points) ->
          List.iter
            (fun (p : Tuple_problem.point) ->
              h p.Tuple_problem.amat;
              h p.Tuple_problem.energy;
              Array.iter h p.Tuple_problem.vth_set;
              Array.iter h p.Tuple_problem.tox_set;
              Array.iter knob p.Tuple_problem.group_knobs)
            points)
        (Core.Tuple_study.figure2_curves ?workloads c))
    [ None; Some [ List.hd c.Core.Context.workloads ] ];
  Alcotest.(check string) "search results" searches_known_md5
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* --- Figure 2's search ------------------------------------------------------------ *)

(* MD5 of Figure 2's five fronts on the quick context, for the
   three-workload system and for each workload alone: every point's
   hex-float amat and energy, value sets and group knobs.  Computed
   with the per-assignment evaluator that the row evaluator replaced;
   the row form lifts the L2 terms out of each row and must keep every
   other sum's association order to match it. *)
let figure2_fronts_md5 = "a7d912f183b73254a231ca91fb785f2a"

let test_figure2_fronts_pinned () =
  let c = Lazy.force ctx in
  let b = Buffer.create (1 lsl 16) in
  let h x = Printf.bprintf b "%h " x in
  List.iter
    (fun workloads ->
      Buffer.add_string b (String.concat "+" workloads);
      List.iter
        (fun (spec, points) ->
          Printf.bprintf b "\n%s:" (Tuple_problem.spec_name spec);
          List.iter
            (fun (p : Tuple_problem.point) ->
              h p.Tuple_problem.amat;
              h p.Tuple_problem.energy;
              Array.iter h p.Tuple_problem.vth_set;
              Array.iter h p.Tuple_problem.tox_set;
              Array.iter
                (fun (k : Component.knob) ->
                  h k.Component.vth;
                  h k.Component.tox)
                p.Tuple_problem.group_knobs;
              Buffer.add_char b ';')
            points)
        (Core.Tuple_study.figure2_curves ~workloads c);
      Buffer.add_char b '\n')
    (c.Core.Context.workloads :: List.map (fun w -> [ w ]) c.Core.Context.workloads);
  Alcotest.(check string) "fronts" figure2_fronts_md5
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* One [figure2_curves] on tables already built evaluates 782,320
   assignments.  Row by row into the search's own arrays, with flat
   bins, it allocates ~3.2e4 words: the memo lookups, the value-subset
   buffers and the fronts.  A boxed (amat, energy) pair per
   assignment, as before, was ~1.14e7. *)
let test_tuple_search_allocation () =
  let c = Lazy.force ctx in
  ignore (Core.Tuple_study.figure2_curves c);
  let w0 = Gc.minor_words () in
  ignore (Core.Tuple_study.figure2_curves c);
  let words = Gc.minor_words () -. w0 in
  if words > 1e5 then
    Alcotest.failf "one figure2_curves allocated %.0f minor words (gate: 1e5)" words

(* --- one table per (cache, grid) ------------------------------------------------ *)

let table_builds () =
  List.fold_left
    (fun n (st : Nmcache_engine.Trace.stage) ->
      if st.Nmcache_engine.Trace.name = "scheme.tables" then st.Nmcache_engine.Trace.calls
      else n)
    0
    (Nmcache_engine.Trace.stages ())

let test_scheme_rows_build_one_table () =
  let c = Lazy.force ctx in
  Core.Context.clear_memo ();
  let before = table_builds () in
  let rows = Core.Single_cache.scheme_rows c () in
  Alcotest.(check int) "27 searches" 27 (List.length rows * List.length Scheme.all);
  Alcotest.(check int) "one table build" 1 (table_builds () - before)

(* perfbench resets the memos before every batch through clear_memo *)
let test_clear_memo_drops_tables () =
  let c = Lazy.force ctx in
  let build () = Core.Context.tables c (Core.Context.l2_config c ()) ~grid:c.Core.Context.grid in
  let first = build () in
  let before = table_builds () in
  Alcotest.(check bool) "memoised" true (build () == first);
  Alcotest.(check int) "no build while memoised" 0 (table_builds () - before);
  Core.Context.clear_memo ();
  Alcotest.(check bool) "a new table after clear_memo" true (build () != first);
  Alcotest.(check int) "one build after clear_memo" 1 (table_builds () - before)

let test_all_experiments_produce_output () =
  let c = Lazy.force ctx in
  List.iter
    (fun (e : Core.Experiments.t) ->
      let artefacts = e.Core.Experiments.run c in
      Alcotest.(check bool)
        (e.Core.Experiments.id ^ " yields artefacts")
        true (artefacts <> []);
      let rendered = Core.Report.render artefacts in
      Alcotest.(check bool)
        (e.Core.Experiments.id ^ " renders")
        true
        (String.length rendered > 40))
    Core.Experiments.all

let suite =
  [
    Alcotest.test_case "fig1 series shape" `Slow test_fig1_series_shape;
    Alcotest.test_case "fig1 Tox leakage sensitivity" `Slow
      test_fig1_tox_is_stronger_leakage_knob;
    Alcotest.test_case "fig1 Vth delay sensitivity" `Slow test_fig1_vth_is_the_delay_knob;
    Alcotest.test_case "scheme claims (T1)" `Slow test_scheme_claims;
    Alcotest.test_case "scheme II close to I (T1)" `Slow test_scheme_ii_close_to_i;
    Alcotest.test_case "m2_of_curve diagnosable error" `Quick test_m2_of_curve_diagnosable;
    Alcotest.test_case "L2 feasibility monotone (T2)" `Slow test_l2_sweep_feasibility_monotone;
    Alcotest.test_case "L2 m2 decreasing (T2)" `Slow test_l2_m2_decreasing;
    Alcotest.test_case "L2 turnover (T2)" `Slow test_l2_turnover;
    Alcotest.test_case "scheme II never worse (T3)" `Slow test_l2_split_never_worse;
    Alcotest.test_case "bigger L2 more conservative (T2)" `Slow
      test_l2_bigger_more_conservative;
    Alcotest.test_case "small L1 optimal (T4)" `Slow test_l1_small_is_optimal;
    Alcotest.test_case "L1 miss rates (T4)" `Slow test_l1_miss_rates_low_and_falling;
    Alcotest.test_case "fig2 curves present" `Slow test_fig2_all_curves_present;
    Alcotest.test_case "fig2 2T3V dominates 2T2V" `Slow test_fig2_2t3v_at_least_as_good_as_2t2v;
    Alcotest.test_case "fig2 dual/dual near optimal" `Slow
      test_fig2_dual_vth_near_optimal_at_loose_amat;
    Alcotest.test_case "fig2 Vth beats Tox as single knob" `Slow
      test_fig2_dual_vth_beats_dual_tox_when_single_knob;
    Alcotest.test_case "fit quality thresholds" `Slow test_fit_quality_thresholds;
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "experiment determinism" `Slow test_experiment_determinism;
    Alcotest.test_case "summary claims hold" `Slow test_summary_claims_hold;
    Alcotest.test_case "bigger-L2 verdict can fail (T2)" `Quick
      test_bigger_l2_verdict_can_fail;
    Alcotest.test_case "all experiments run" `Slow test_all_experiments_produce_output;
    Alcotest.test_case "searches pinned bit for bit" `Slow test_searches_pinned;
    Alcotest.test_case "figure 2 fronts pinned bit for bit" `Slow test_figure2_fronts_pinned;
    Alcotest.test_case "tuple search allocation bound" `Slow test_tuple_search_allocation;
    Alcotest.test_case "scheme rows build one table" `Quick test_scheme_rows_build_one_table;
    Alcotest.test_case "clear_memo drops the tables" `Quick test_clear_memo_drops_tables;
  ]
