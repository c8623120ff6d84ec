module Units = Nmcache_physics.Units
module Scheme = Nmcache_opt.Scheme
module Tuple_problem = Nmcache_opt.Tuple_problem

type verdict = {
  id : string;
  claim : string;
  source : string;
  holds : bool;
  evidence : string;
}

type section = {
  name : string;
  judge : Context.t -> verdict list;
}

(* Tolerances, with headroom over the measured values in EXPERIMENTS.md.
   Scheme II/I peaks at 1.12 (1.21 on the quick context), so "only
   slightly behind" means at most 1.25x at every budget; III/II reaches
   2.2-2.6 at mid budgets, so "III is the worst" asks for 1.3x somewhere. *)
let order_tol = 1e-9
let min_complete_budgets = 3
let ii_near_i_max = 1.25
let iii_above_ii_min = 1.3

(* The conservative-array observation needs a budget with slack to
   allocate: at the forced-fastest corner (every component pinned to its
   fastest knob) the optimum is degenerate and grid tie-breaks can order
   equal-delay knobs either way, so Scheme I is held to it only with
   >= 5% headroom over the all-fastest assignment. *)
let conservative_min_slack = 1.05

let small_l1_max = 16 * 1024

(* Figure 2: a 0.01% tie band for "lowest", 15% for "sufficient", 2%
   for the single-Tox vs single-Vth comparison. *)
let fig2_tie = 1.0001
let fig2_sufficient = 1.15
let fig2_vth_slack = 1.02

let ps = Units.to_ps
let mw = Units.to_mw
let kb bytes = bytes / 1024

let verdict id source claim (holds, evidence) = { id; claim; source; holds; evidence }

let span points =
  let xs = List.map fst points in
  List.fold_left Float.max Float.neg_infinity xs
  -. List.fold_left Float.min Float.infinity xs

let leak_ratio points =
  let ys = List.map snd points in
  List.fold_left Float.max Float.neg_infinity ys
  /. Float.max (List.fold_left Float.min Float.infinity ys) 1e-12

let rec pairwise f = function
  | a :: (b :: _ as rest) -> f a b && pairwise f rest
  | [ _ ] | [] -> true

(* A per-budget condition judged as one claim: it must hold at each of a
   non-empty set of budgets. *)
let every ok xs = xs <> [] && List.for_all ok xs

(* The element with the largest [score], the first among equals. *)
let worst score = function
  | [] -> None
  | x :: rest ->
    Some (List.fold_left (fun acc y -> if score y > score acc then y else acc) x rest)

(* --- Figure 1 ---------------------------------------------------------- *)

let sensitivity ctx =
  let series = Single_cache.figure1_series ctx in
  let get label = List.assoc label series in
  (* Figure 1 sweeps Vth at two fixed Tox values and Tox at two fixed Vth values *)
  let vth_sweeps = [ get "Tox=10A"; get "Tox=14A" ] in
  let tox_sweeps = [ get "Vth=200mV"; get "Vth=400mV" ] in
  let most f sweeps = List.fold_left (fun acc s -> Float.max acc (f s)) Float.neg_infinity sweeps in
  let tox_lever = leak_ratio (get "Vth=400mV") and vth_lever = leak_ratio (get "Tox=10A") in
  let tox_most = most leak_ratio tox_sweeps and vth_most = most leak_ratio vth_sweeps in
  let vth_span = most span vth_sweeps and tox_span = most span tox_sweeps in
  [
    verdict "sensitivity.tox-dominates-leakage" "Figure 1 / sec.4"
      "leakage is more sensitive to Tox than to Vth"
      ( tox_lever > vth_lever && tox_most > vth_most,
        Printf.sprintf
          "leakage ratio %.1fx over the Tox sweep at Vth=400mV (max %.1fx) vs %.1fx over \
           the Vth sweep at Tox=10A (max %.1fx)"
          tox_lever tox_most vth_lever vth_most );
    verdict "sensitivity.vth-wider-delay-range" "Figure 1 / sec.4"
      "Vth offers the wider delay-tuning range (tune Vth, fix Tox high)"
      ( vth_span > tox_span,
        Printf.sprintf "delay span %.0f ps (Vth swept) vs %.0f ps (Tox swept)" vth_span
          tox_span );
  ]

(* --- Schemes (sec.4) ------------------------------------------------------ *)

let schemes ctx =
  let fastest =
    Scheme.fastest (Context.tables ctx (Context.l1_config ctx ()) ~grid:ctx.Context.grid)
  in
  let rows = Single_cache.scheme_rows ctx () in
  let lookup r s = Option.join (List.assoc_opt s r.Single_cache.results) in
  let complete =
    List.filter_map
      (fun r ->
        match (lookup r Scheme.Independent, lookup r Scheme.Split, lookup r Scheme.Uniform) with
        | Some i, Some ii, Some iii -> Some (r.Single_cache.budget, i, ii, iii)
        | _ -> None)
      rows
  in
  let leak r = r.Scheme.leak_w in
  let none = "no budget is feasible under all three schemes" in
  let misorder (_, i, ii, iii) = Float.max (leak i /. leak ii) (leak ii /. leak iii) in
  let ordered (_, i, ii, iii) =
    leak i <= leak ii *. (1.0 +. order_tol) && leak ii <= leak iii *. (1.0 +. order_tol)
  in
  let iii_gap =
    List.fold_left (fun acc (_, _, ii, iii) -> Float.max acc (leak iii /. leak ii)) 0.0 complete
  in
  let ii_over_i (_, i, ii, _) = leak ii /. leak i in
  let slack b = b >= fastest *. conservative_min_slack in
  let conservative (b, i, ii, _) =
    Single_cache.array_is_conservative ii.Scheme.assignment
    && ((not (slack b)) || Single_cache.array_is_conservative i.Scheme.assignment)
  in
  [
    verdict "schemes.ordering" "sec.4"
      "scheme III is the worst and scheme I the best at every budget"
      ( List.length complete >= min_complete_budgets
        && List.for_all ordered complete
        && iii_gap >= iii_above_ii_min,
        match worst misorder complete with
        | None -> none
        | Some (b, i, ii, iii) ->
          Printf.sprintf
            "%d of %d budgets feasible; tightest at %.0f ps (I %.3f, II %.3f, III %.3f mW); \
             max III/II = %.2f"
            (List.length complete) (List.length rows) (ps b) (mw (leak i)) (mw (leak ii))
            (mw (leak iii)) iii_gap );
    verdict "schemes.ii-near-i" "sec.4" "scheme II is only slightly behind scheme I"
      ( every (fun r -> ii_over_i r <= ii_near_i_max) complete,
        match worst ii_over_i complete with
        | None -> none
        | Some ((b, _, _, _) as r) ->
          Printf.sprintf "worst II/I = %.3f at %.0f ps (limit %.2f)" (ii_over_i r) (ps b)
            ii_near_i_max );
    verdict "schemes.array-conservative" "sec.4 / sec.5"
      "optimal assignments give the cell array high Vth and thick Tox"
      ( every conservative complete,
        match List.find_opt (fun r -> not (conservative r)) complete with
        | Some (b, _, _, _) ->
          Printf.sprintf "a peripheral knob is more conservative than the array at %.0f ps"
            (ps b)
        | None when complete = [] -> none
        | None ->
          Printf.sprintf
            "array knob >= every peripheral knob: II at all %d budgets, I at the %d with \
             >= 5%% slack"
            (List.length complete)
            (List.length (List.filter (fun (b, _, _, _) -> slack b) complete)) );
  ]

(* --- L2 sizing (sec.5) ------------------------------------------------------ *)

let bigger_l2_leaks_less sweep =
  let rows = sweep.Two_level.rows in
  let feasible =
    List.filter_map
      (fun r -> Option.map (fun l -> (r.Two_level.l2_size, l)) r.Two_level.total_leak)
      rows
  in
  (* either the smallest swept size misses the AMAT target and a larger
     one meets it ... *)
  let unlocked =
    match (rows, feasible) with
    | r :: _, (s, _) :: _ when r.Two_level.total_leak = None ->
      [ Printf.sprintf "%d KB misses the AMAT target, %d KB meets it" (kb r.Two_level.l2_size)
          (kb s) ]
    | _ -> []
  in
  (* ... or some feasible size leaks more in total than the next one *)
  let rec falls = function
    | (a, la) :: ((b, lb) :: _ as rest) ->
      if la > lb then
        [ Printf.sprintf "%d -> %d KB: total leakage falls %.1f -> %.1f mW" (kb a) (kb b)
            (mw la) (mw lb) ]
      else falls rest
    | [ _ ] | [] -> []
  in
  let cases = unlocked @ falls feasible in
  let m2_mono = pairwise (fun a b -> a >= b -. 1e-12) (List.map (fun r -> r.Two_level.m2) rows) in
  let budget_mono =
    pairwise (fun a b -> a <= b +. 1e-15) (List.filter_map (fun r -> r.Two_level.t_l2_budget) rows)
  in
  let trend ok what = if ok then what else "not " ^ what in
  verdict "l2-sizing.bigger-leaks-less" "sec.5"
    "with one pair per L2, bigger L2s leak less at iso-AMAT..."
    ( cases <> [] && m2_mono && budget_mono,
      String.concat "; "
        ((if cases = [] then [ "the smallest size is feasible and no larger size leaks less" ]
          else cases)
        @ [
            Printf.sprintf "m2 %s, T_L2 budget %s" (trend m2_mono "non-increasing")
              (trend budget_mono "non-decreasing");
          ]) )

let l2_turnover sweep =
  let rows = sweep.Two_level.rows in
  let largest = List.fold_left (fun acc r -> max acc r.Two_level.l2_size) 0 rows in
  let n_feasible = List.length (List.filter (fun r -> r.Two_level.total_leak <> None) rows) in
  verdict "l2-sizing.turnover" "sec.5"
    "...but the largest L2 is not the best (leakage outgrows the miss payoff)"
    (match Two_level.best_l2_size sweep with
    | None -> (false, "no feasible size")
    | Some b ->
      ( b < largest && n_feasible >= 2,
        Printf.sprintf "optimum at %d KB of %d feasible sizes, below the largest %d KB" (kb b)
          n_feasible (kb largest) ))

let l2_sizing ctx =
  let sweep = Two_level.l2_sweep ctx ~scheme:Scheme.Uniform in
  [ bigger_l2_leaks_less sweep; l2_turnover sweep ]

let l2_two_pair ctx =
  let single = Two_level.l2_sweep ctx ~scheme:Scheme.Uniform in
  let split = Two_level.l2_sweep ctx ~scheme:Scheme.Split in
  [
    verdict "l2-two-pair.periphery-beats-array" "sec.5"
      "per-component pairs make aggressive peripheries beat growing the array"
      (match Two_level.two_pair_gain ~single ~split with
      | Some (size, g) ->
        ( true,
          Printf.sprintf "at %d KB the two-pair design leaks %.1f%% less" (kb size) (100.0 *. g) )
      | None -> (false, "no size where two pairs improved"));
  ]

(* --- L1 sizing (sec.5) ------------------------------------------------------ *)

let l1_sizing ctx =
  let sweep = Two_level.l1_sweep_rows ctx in
  let rows = sweep.Two_level.l1_rows in
  let smallest = List.fold_left (fun acc r -> min acc r.Two_level.l1_size) max_int rows in
  let m1_mono = pairwise (fun a b -> a >= b -. 1e-12) (List.map (fun r -> r.Two_level.m1) rows) in
  [
    verdict "l1-sizing.smallest-wins" "sec.5" "a small L1 minimises total leakage under a fixed L2"
      (match Two_level.best_l1_size sweep with
      | None -> (false, "no feasible size")
      | Some b ->
        ( b = smallest && b <= small_l1_max && m1_mono,
          Printf.sprintf "optimum L1 = %d KB (smallest swept %d KB); m1 %snon-increasing" (kb b)
            (kb smallest) (if m1_mono then "" else "not ") ));
  ]

(* --- Figure 2 ------------------------------------------------------------------ *)

let fig2 ctx =
  let curves = Tuple_study.figure2_curves ctx in
  let curve nv nt =
    List.find_map
      (fun ((s : Tuple_problem.spec), pts) ->
        if s.Tuple_problem.n_vth = nv && s.Tuple_problem.n_tox = nt then Some pts else None)
      curves
  in
  let all_amats =
    List.concat_map
      (fun (_, pts) -> List.map (fun (p : Tuple_problem.point) -> p.Tuple_problem.amat) pts)
      curves
  in
  let loose = List.fold_left Float.max Float.neg_infinity all_amats in
  let e nv nt = Option.bind (curve nv nt) (fun pts -> Tuple_study.energy_at pts ~amat:loose) in
  let judged =
    match (e 3 2, e 2 2, e 2 1, e 1 2) with
    | Some e23, Some e22, Some e12, Some e21 ->
      [
        ( e23 <= e22 *. fig2_tie && e23 <= e12 && e23 <= e21,
          Printf.sprintf "at %.0f ps: 2T3V %.1f pJ vs 2T2V %.1f pJ" (ps loose) (Units.to_pj e23)
            (Units.to_pj e22) );
        ( e22 <= e23 *. fig2_sufficient,
          Printf.sprintf "2T2V within %.1f%% of 2T3V" (100.0 *. ((e22 /. e23) -. 1.0)) );
        ( e12 <= e21 *. fig2_vth_slack,
          Printf.sprintf "1T2V %.1f pJ vs 2T1V %.1f pJ at the relaxed end" (Units.to_pj e12)
            (Units.to_pj e21) );
      ]
    | _ -> List.init 3 (fun _ -> (false, "a Figure-2 frontier does not reach the loose end"))
  in
  List.map2
    (fun (id, source, claim) -> verdict id source claim)
    [
      ("fig2.2t3v-lowest", "Figure 2", "2 Tox + 3 Vth achieves the lowest total energy");
      ( "fig2.2t2v-sufficient", "Figure 2",
        "dual Tox + dual Vth is sufficient (within noise of the best)" );
      ( "fig2.1t2v-beats-2t1v", "Figure 2 / sec.5",
        "a single Tox with dual Vth beats dual Tox with single Vth" );
    ]
    judged

let sections =
  [
    { name = "sensitivity"; judge = sensitivity };
    { name = "schemes"; judge = schemes };
    { name = "l2-sizing"; judge = l2_sizing };
    { name = "l2-two-pair"; judge = l2_two_pair };
    { name = "l1-sizing"; judge = l1_sizing };
    { name = "fig2"; judge = fig2 };
  ]

let verdicts ctx = List.concat_map (fun s -> s.judge ctx) sections

let run ctx =
  let vs = verdicts ctx in
  let rows =
    List.map
      (fun v -> [ (if v.holds then "PASS" else "FAIL"); v.id; v.source; v.claim; v.evidence ])
      vs
  in
  let n_pass = List.length (List.filter (fun v -> v.holds) vs) in
  [
    Report.table ~title:"Paper-claim verdicts (computed live)"
      ~columns:[ "verdict"; "id"; "source"; "claim"; "evidence" ]
      ~rows;
    Report.note
      (Printf.sprintf "%d of %d claims reproduced on this run" n_pass (List.length vs));
  ]
