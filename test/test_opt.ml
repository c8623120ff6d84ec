(* Tests for the optimisation layer: grids, Pareto fronts, the three
   assignment schemes, and the tuple problem. *)

module Units = Nmcache_physics.Units
module Tech = Nmcache_device.Tech
module Config = Nmcache_geometry.Config
module Component = Nmcache_geometry.Component
module Cache_model = Nmcache_geometry.Cache_model
module Fitted_cache = Nmcache_fit.Fitted_cache
module Grid = Nmcache_opt.Grid
module Pareto = Nmcache_opt.Pareto
module Scheme = Nmcache_opt.Scheme
module Tuple_problem = Nmcache_opt.Tuple_problem
module Rng = Nmcache_numerics.Rng

let tech = Tech.bptm65

let fitted =
  lazy
    (Fitted_cache.characterize_and_fit
       (Cache_model.make tech (Config.make ~size_bytes:(16 * 1024) ~assoc:4 ~block_bytes:64 ())))

(* --- grid ------------------------------------------------------------- *)

let test_grid_sizes () =
  let g = Grid.make tech in
  Alcotest.(check int) "13 vths" 13 (Array.length g.Grid.vths);
  Alcotest.(check int) "9 toxs" 9 (Array.length g.Grid.toxs);
  Alcotest.(check int) "117 knobs" 117 (Grid.size g);
  Alcotest.(check int) "knob array matches" 117 (Array.length (Grid.knobs g));
  let c = Grid.coarse tech in
  Alcotest.(check int) "coarse 35" 35 (Grid.size c)

let test_grid_bounds () =
  let g = Grid.make tech in
  Alcotest.(check bool) "vth endpoints" true
    (g.Grid.vths.(0) = tech.Tech.vth_min
    && Float.abs (g.Grid.vths.(12) -. tech.Tech.vth_max) < 1e-12);
  Alcotest.(check bool) "tox endpoints" true
    (Float.abs (g.Grid.toxs.(0) -. tech.Tech.tox_min) < 1e-15
    && Float.abs (g.Grid.toxs.(8) -. tech.Tech.tox_max) < 1e-15)

let test_grid_nearest () =
  let g = Grid.make tech in
  let k = Grid.nearest g (Component.knob ~vth:0.312 ~tox:(Units.angstrom 11.74)) in
  Alcotest.(check bool) "snaps vth" true (Float.abs (k.Component.vth -. 0.3) < 1e-9);
  Alcotest.(check bool) "snaps tox" true
    (Float.abs (Units.to_angstrom k.Component.tox -. 11.5) < 1e-9)

let test_grid_nearest_tie_breaks_low () =
  (* exactly midway between two grid points the first (lower) wins *)
  let g = { Grid.vths = [| 0.2; 0.3 |]; toxs = [| Units.angstrom 10.0; Units.angstrom 11.0 |] } in
  let k = Grid.nearest g (Component.knob ~vth:0.25 ~tox:(Units.angstrom 10.5)) in
  Alcotest.(check (float 1e-12)) "vth tie -> lower" 0.2 k.Component.vth;
  Alcotest.(check (float 1e-9)) "tox tie -> lower" 10.0 (Units.to_angstrom k.Component.tox)

let test_steps_between_exact () =
  let s = Grid.steps_between ~lo:0.0 ~hi:1.0 ~step:0.25 in
  Alcotest.(check int) "five points" 5 (Array.length s);
  Alcotest.(check (float 1e-12)) "first is lo" 0.0 s.(0);
  Alcotest.(check (float 1e-12)) "last is hi" 1.0 s.(4)

let test_steps_between_drifted_endpoint () =
  (* hi a few ulps off a whole number of steps must still land the full
     count, not drop or overshoot the endpoint *)
  let hi = 0.15 +. (12.0 *. 0.025) in
  (* 0.44999999999999996 on binary floats *)
  let s = Grid.steps_between ~lo:0.15 ~hi ~step:0.025 in
  Alcotest.(check int) "thirteen points" 13 (Array.length s);
  Alcotest.(check bool) "endpoint within drift of hi" true
    (Float.abs (s.(12) -. hi) < 1e-12)

let test_steps_between_no_overshoot () =
  (* hi is NOT on the grid: stop at the last step below it instead of
     rounding up past hi (lo=0, hi=1.08, step=0.3 -> 3.6 steps) *)
  let s = Grid.steps_between ~lo:0.0 ~hi:1.08 ~step:0.3 in
  Alcotest.(check int) "four points" 4 (Array.length s);
  Alcotest.(check (float 1e-12)) "last step below hi" 0.9 s.(3);
  Array.iter (fun v -> Alcotest.(check bool) "never overshoots" true (v <= 1.08)) s

let test_steps_between_degenerate_and_invalid () =
  let s = Grid.steps_between ~lo:2.0 ~hi:2.0 ~step:0.5 in
  Alcotest.(check int) "single point when lo = hi" 1 (Array.length s);
  Alcotest.(check (float 1e-12)) "that point is lo" 2.0 s.(0);
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "non-positive step rejected" true
    (raises (fun () -> ignore (Grid.steps_between ~lo:0.0 ~hi:1.0 ~step:0.0)));
  Alcotest.(check bool) "hi below lo rejected" true
    (raises (fun () -> ignore (Grid.steps_between ~lo:1.0 ~hi:0.0 ~step:0.5)))

let test_coarse_fine_endpoints () =
  List.iter
    (fun (label, g) ->
      let last arr = arr.(Array.length arr - 1) in
      Alcotest.(check bool) (label ^ " vth endpoints") true
        (Float.abs (g.Grid.vths.(0) -. tech.Tech.vth_min) < 1e-12
        && Float.abs (last g.Grid.vths -. tech.Tech.vth_max) < 1e-12);
      Alcotest.(check bool) (label ^ " tox endpoints") true
        (Float.abs (g.Grid.toxs.(0) -. tech.Tech.tox_min) < 1e-15
        && Float.abs (last g.Grid.toxs -. tech.Tech.tox_max) < 1e-15))
    [ ("default", Grid.make tech); ("coarse", Grid.coarse tech); ("fine", Grid.fine tech) ]

(* --- pareto ------------------------------------------------------------ *)

let test_pareto_simple () =
  let pts = [ (1.0, 5.0); (2.0, 3.0); (3.0, 4.0); (4.0, 1.0); (2.5, 3.0) ] in
  let front = Pareto.front ~key:(fun p -> p) pts in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9)))) "front"
    [ (1.0, 5.0); (2.0, 3.0); (4.0, 1.0) ]
    front

let test_pareto_dominates () =
  Alcotest.(check bool) "dominates" true (Pareto.dominates (1.0, 1.0) (2.0, 2.0));
  Alcotest.(check bool) "equal doesn't" false (Pareto.dominates (1.0, 1.0) (1.0, 1.0));
  Alcotest.(check bool) "incomparable" false (Pareto.dominates (1.0, 3.0) (2.0, 1.0))

let prop_pareto_front_invariant =
  QCheck.Test.make ~count:100 ~name:"front output satisfies is_front"
    Generators.point_cloud_arb
    (fun pts ->
      let front = Pareto.front ~key:(fun p -> p) pts in
      Pareto.is_front ~key:(fun p -> p) front)

let prop_pareto_covers_inputs =
  QCheck.Test.make ~count:100 ~name:"every input is dominated by or on the front"
    Generators.point_cloud_arb
    (fun pts ->
      let front = Pareto.front ~key:(fun p -> p) pts in
      List.for_all
        (fun p ->
          List.exists (fun f -> f = p || Pareto.dominates f p) front)
        pts)

(* --- schemes -------------------------------------------------------------- *)

let test_scheme_names () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "roundtrip" true (Scheme.of_name (Scheme.name s) = Some s))
    Scheme.all

let test_scheme_ordering () =
  let f = Lazy.force fitted in
  let grid = Grid.make tech in
  let fast = Scheme.fastest_access_time f ~grid in
  let slow = Scheme.slowest (Scheme.tables f ~grid) in
  Alcotest.(check bool) "fast < slow" true (fast < slow);
  List.iter
    (fun frac ->
      let budget = fast +. (frac *. (slow -. fast)) in
      let leak s =
        match Scheme.minimize_leakage f ~grid ~scheme:s ~delay_budget:budget with
        | None -> Alcotest.failf "scheme %s infeasible at %f" (Scheme.name s) frac
        | Some r -> r.Scheme.leak_w
      in
      let li = leak Scheme.Independent
      and lii = leak Scheme.Split
      and liii = leak Scheme.Uniform in
      Alcotest.(check bool)
        (Printf.sprintf "I <= II at %.2f (%.4g vs %.4g)" frac li lii)
        true (li <= lii +. (1e-9 *. lii));
      Alcotest.(check bool)
        (Printf.sprintf "II <= III at %.2f" frac)
        true (lii <= liii +. (1e-9 *. liii)))
    [ 0.1; 0.3; 0.5; 0.8 ]

let test_scheme_budget_respected () =
  let f = Lazy.force fitted in
  let grid = Grid.make tech in
  let budget = 1.25 *. Scheme.fastest_access_time f ~grid in
  List.iter
    (fun s ->
      match Scheme.minimize_leakage f ~grid ~scheme:s ~delay_budget:budget with
      | None -> Alcotest.fail "should be feasible"
      | Some r ->
        Alcotest.(check bool)
          (Printf.sprintf "scheme %s meets budget" (Scheme.name s))
          true
          (r.Scheme.access_time <= budget *. (1.0 +. 1e-9)))
    Scheme.all

let test_scheme_infeasible () =
  let f = Lazy.force fitted in
  let grid = Grid.make tech in
  let too_fast = 0.9 *. Scheme.fastest_access_time f ~grid in
  List.iter
    (fun s ->
      Alcotest.(check bool) "infeasible below the floor" true
        (Scheme.minimize_leakage f ~grid ~scheme:s ~delay_budget:too_fast = None))
    Scheme.all

let test_scheme_validation () =
  let f = Lazy.force fitted in
  Alcotest.(check bool) "bad budget" true
    (try
       ignore
         (Scheme.minimize_leakage f ~grid:(Grid.make tech) ~scheme:Scheme.Uniform
            ~delay_budget:0.0);
       false
     with Invalid_argument _ -> true)

let test_scheme_monotone_in_budget () =
  let f = Lazy.force fitted in
  let grid = Grid.make tech in
  let fast = Scheme.fastest_access_time f ~grid in
  let prev = ref Float.infinity in
  List.iter
    (fun mult ->
      match
        Scheme.minimize_leakage f ~grid ~scheme:Scheme.Split ~delay_budget:(mult *. fast)
      with
      | None -> Alcotest.fail "feasible budgets expected"
      | Some r ->
        Alcotest.(check bool) "leakage non-increasing in budget" true
          (r.Scheme.leak_w <= !prev +. 1e-15);
        prev := r.Scheme.leak_w)
    [ 1.05; 1.15; 1.3; 1.5; 1.8; 2.2 ]

let test_uniform_scheme_really_uniform () =
  let f = Lazy.force fitted in
  let grid = Grid.make tech in
  let budget = 1.4 *. Scheme.fastest_access_time f ~grid in
  match Scheme.minimize_leakage f ~grid ~scheme:Scheme.Uniform ~delay_budget:budget with
  | None -> Alcotest.fail "feasible expected"
  | Some r ->
    let a = r.Scheme.assignment in
    let k0 = Component.get a Component.Array_sense in
    Alcotest.(check bool) "all components share one pair" true
      (List.for_all
         (fun kind -> Component.get a kind = k0)
         Component.all_kinds)

let test_split_scheme_structure () =
  let f = Lazy.force fitted in
  let grid = Grid.make tech in
  let budget = 1.25 *. Scheme.fastest_access_time f ~grid in
  match Scheme.minimize_leakage f ~grid ~scheme:Scheme.Split ~delay_budget:budget with
  | None -> Alcotest.fail "feasible expected"
  | Some r ->
    let a = r.Scheme.assignment in
    let periph = Component.get a Component.Decoder in
    Alcotest.(check bool) "peripherals share one pair" true
      (Component.get a Component.Addr_drivers = periph
      && Component.get a Component.Data_drivers = periph)

(* brute force over every 4-tuple of [grid]'s knobs, summing component
   delays left to right like the production searches *)
let brute_independent f ~grid budget =
  let knobs = Grid.knobs grid in
  let n = Array.length knobs in
  let table pick =
    Array.of_list (List.map (fun kind -> Array.map (pick f kind) knobs) Component.all_kinds)
  in
  let leak = table Fitted_cache.leak_of and delay = table Fitted_cache.delay_of in
  let best = ref Float.infinity in
  for i0 = 0 to n - 1 do
    for i1 = 0 to n - 1 do
      for i2 = 0 to n - 1 do
        for i3 = 0 to n - 1 do
          let d = delay.(0).(i0) +. delay.(1).(i1) +. delay.(2).(i2) +. delay.(3).(i3) in
          if d <= budget then begin
            let l = leak.(0).(i0) +. leak.(1).(i1) +. leak.(2).(i2) +. leak.(3).(i3) in
            if l < !best then best := l
          end
        done
      done
    done
  done;
  if !best = Float.infinity then None else Some !best

(* exact to rounding: the leakage sums of two optimal tuples may differ
   in the last bits *)
let same_optimum a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Float.abs (x -. y) <= 1e-12 *. Float.abs y
  | _ -> false

let test_scheme_i_matches_bruteforce () =
  let f = Lazy.force fitted in
  let full = Grid.make tech in
  let small =
    {
      Grid.vths = [| full.Grid.vths.(0); full.Grid.vths.(6); full.Grid.vths.(12) |];
      toxs = [| full.Grid.toxs.(0); full.Grid.toxs.(8) |];
    }
  in
  let fast = Scheme.fastest_access_time f ~grid:small in
  let slow = Scheme.slowest (Scheme.tables f ~grid:small) in
  List.iter
    (fun frac ->
      let budget = fast +. (frac *. (slow -. fast)) in
      let exact =
        Scheme.minimize_leakage f ~grid:small ~scheme:Scheme.Independent ~delay_budget:budget
      in
      let got = Option.map (fun r -> r.Scheme.leak_w) exact in
      let want = brute_independent f ~grid:small budget in
      Alcotest.(check bool)
        (Printf.sprintf "Scheme I %s vs brute %s at %.2f"
           (Option.fold ~none:"none" ~some:string_of_float got)
           (Option.fold ~none:"none" ~some:string_of_float want)
           frac)
        true (same_optimum got want);
      Option.iter
        (fun r ->
          Alcotest.(check bool) "meets the budget" true (r.Scheme.access_time <= budget))
        exact)
    [ 0.0; 0.02; 0.1; 0.25; 0.5; 0.75; 0.95; 1.0 ]

(* --- tuple problem ---------------------------------------------------------- *)

(* a synthetic, fully-controlled system: 2 groups; delay/energy are simple
   functions of the grid knob so the optimum is known.  One row holds
   group 1 fixed and gives group 0 each of [pairs]. *)
let synthetic_eval grid : Tuple_problem.row_eval =
  let knobs = Grid.knobs grid in
  let d (k : Component.knob) = k.Component.vth +. (Units.to_angstrom k.Component.tox /. 100.0) in
  let e (k : Component.knob) = 2.0 -. k.Component.vth in
  fun ~groups ~pairs ~amat ~energy ->
    let k1 = knobs.(groups.(1)) in
    Array.iteri
      (fun j p ->
        let k0 = knobs.(p) in
        amat.(j) <- d k0 +. d k1;
        energy.(j) <- e k0 +. e k1)
      pairs

let test_tuple_synthetic () =
  let grid = Grid.coarse tech in
  let eval = synthetic_eval grid in
  let points =
    Tuple_problem.pareto_curve ~grid ~n_groups:2 ~eval
      ~spec:{ Tuple_problem.n_vth = 2; n_tox = 1 }
  in
  Alcotest.(check bool) "non-empty" true (points <> []);
  (* frontier sorted in amat with strictly decreasing energy *)
  let rec check = function
    | (a : Tuple_problem.point) :: (b :: _ as rest) ->
      Alcotest.(check bool) "sorted x" true (a.Tuple_problem.amat < b.Tuple_problem.amat);
      Alcotest.(check bool) "decreasing y" true (a.Tuple_problem.energy > b.Tuple_problem.energy);
      check rest
    | _ -> ()
  in
  check points;
  (* with energy = 2 - vth, minimal energy uses the max vth twice *)
  let last = List.nth points (List.length points - 1) in
  Alcotest.(check bool) "cheapest uses max vth" true
    (Array.for_all
       (fun (k : Component.knob) -> Float.abs (k.Component.vth -. tech.Tech.vth_max) < 1e-9)
       last.Tuple_problem.group_knobs)

let test_tuple_sets_sized () =
  let grid = Grid.coarse tech in
  let eval = synthetic_eval grid in
  let points =
    Tuple_problem.pareto_curve ~grid ~n_groups:2 ~eval
      ~spec:{ Tuple_problem.n_vth = 2; n_tox = 2 }
  in
  List.iter
    (fun (p : Tuple_problem.point) ->
      Alcotest.(check int) "2 vths" 2 (Array.length p.Tuple_problem.vth_set);
      Alcotest.(check int) "2 toxs" 2 (Array.length p.Tuple_problem.tox_set);
      (* group knobs drawn from the chosen sets *)
      Array.iter
        (fun (k : Component.knob) ->
          Alcotest.(check bool) "vth from set" true
            (Array.exists (fun v -> Float.abs (v -. k.Component.vth) < 1e-12) p.Tuple_problem.vth_set);
          Alcotest.(check bool) "tox from set" true
            (Array.exists
               (fun x -> Float.abs (x -. k.Component.tox) < 1e-15)
               p.Tuple_problem.tox_set))
        p.Tuple_problem.group_knobs)
    points

let test_richer_budget_dominates () =
  (* a (2,2) process can always emulate a (1,2) one, so its frontier must
     be at least as good everywhere *)
  let grid = Grid.coarse tech in
  let eval = synthetic_eval grid in
  let curve spec = Tuple_problem.pareto_curve ~grid ~n_groups:2 ~eval ~spec in
  let rich = curve { Tuple_problem.n_vth = 2; n_tox = 2 } in
  let poor = curve { Tuple_problem.n_vth = 1; n_tox = 2 } in
  List.iter
    (fun (p : Tuple_problem.point) ->
      let best_rich =
        List.fold_left
          (fun acc (q : Tuple_problem.point) ->
            if q.Tuple_problem.amat <= p.Tuple_problem.amat then
              Float.min acc q.Tuple_problem.energy
            else acc)
          Float.infinity rich
      in
      Alcotest.(check bool) "rich <= poor" true
        (best_rich <= p.Tuple_problem.energy +. 1e-9))
    poor

let test_tuple_validation () =
  let grid = Grid.coarse tech in
  let eval = synthetic_eval grid in
  Alcotest.(check bool) "spec too large" true
    (try
       ignore
         (Tuple_problem.pareto_curve ~grid ~n_groups:2 ~eval
            ~spec:{ Tuple_problem.n_vth = 99; n_tox = 1 });
       false
     with Invalid_argument _ -> true)

let test_spec_name () =
  Alcotest.(check string) "name" "2 Tox + 3 Vth"
    (Tuple_problem.spec_name { Tuple_problem.n_vth = 3; n_tox = 2 });
  Alcotest.(check int) "five figure-2 specs" 5 (List.length Tuple_problem.figure2_specs)

(* Random subgrids (shared generator): feasibility nests (every Scheme
   III solution is a II solution is a I solution) and the leakage
   ordering holds wherever two schemes are both feasible. *)
let prop_scheme_ordering_on_subgrids =
  QCheck.Test.make ~count:10 ~name:"scheme nesting and ordering on random subgrids"
    Generators.grid_arb
    (fun grid ->
      let f = Lazy.force fitted in
      let fast = Scheme.fastest_access_time f ~grid in
      let slow = Scheme.slowest (Scheme.tables f ~grid) in
      let budget = fast +. (0.4 *. (slow -. fast)) in
      let leak s =
        Option.map
          (fun r -> r.Scheme.leak_w)
          (Scheme.minimize_leakage f ~grid ~scheme:s ~delay_budget:budget)
      in
      let le a b = a <= b *. (1.0 +. 1e-9) in
      match (leak Scheme.Independent, leak Scheme.Split, leak Scheme.Uniform) with
      | Some li, Some lii, Some liii -> le li lii && le lii liii
      | Some li, Some lii, None -> le li lii
      | Some _, None, None | None, None, None -> true
      | _ -> false (* a more general scheme must stay feasible *))

(* The exact Scheme I search against brute force over all 4-tuples on
   random subgrids, at random budgets between the fastest and slowest
   access — the fastest included, where only the all-fastest tuple fits
   and the feasibility test must sum exactly like [fastest_access_time]. *)
let prop_scheme_i_exact_on_subgrids =
  QCheck.Test.make ~count:20 ~name:"Scheme I equals brute force on random subgrids"
    QCheck.(pair Generators.grid_arb (option (float_range 0.0 1.0)))
    (fun (grid, frac) ->
      let f = Lazy.force fitted in
      let fast = Scheme.fastest_access_time f ~grid in
      let slow = Scheme.slowest (Scheme.tables f ~grid) in
      let budget = match frac with None -> fast | Some x -> fast +. (x *. (slow -. fast)) in
      let exact =
        Scheme.minimize_leakage f ~grid ~scheme:Scheme.Independent ~delay_budget:budget
      in
      same_optimum
        (Option.map (fun r -> r.Scheme.leak_w) exact)
        (brute_independent f ~grid budget)
      && Option.fold ~none:true ~some:(fun r -> r.Scheme.access_time <= budget) exact
      && (frac <> None || exact <> None))

let suite =
  [
    Alcotest.test_case "grid sizes" `Quick test_grid_sizes;
    Alcotest.test_case "grid bounds" `Quick test_grid_bounds;
    Alcotest.test_case "grid nearest" `Quick test_grid_nearest;
    Alcotest.test_case "grid nearest tie-break" `Quick test_grid_nearest_tie_breaks_low;
    Alcotest.test_case "steps_between exact" `Quick test_steps_between_exact;
    Alcotest.test_case "steps_between drifted endpoint" `Quick
      test_steps_between_drifted_endpoint;
    Alcotest.test_case "steps_between no overshoot" `Quick test_steps_between_no_overshoot;
    Alcotest.test_case "steps_between degenerate/invalid" `Quick
      test_steps_between_degenerate_and_invalid;
    Alcotest.test_case "coarse/fine endpoints" `Quick test_coarse_fine_endpoints;
    Alcotest.test_case "pareto simple" `Quick test_pareto_simple;
    Alcotest.test_case "pareto dominates" `Quick test_pareto_dominates;
    Alcotest.test_case "scheme names" `Quick test_scheme_names;
    Alcotest.test_case "scheme ordering I<=II<=III" `Quick test_scheme_ordering;
    Alcotest.test_case "budgets respected" `Quick test_scheme_budget_respected;
    Alcotest.test_case "infeasible budgets" `Quick test_scheme_infeasible;
    Alcotest.test_case "scheme validation" `Quick test_scheme_validation;
    Alcotest.test_case "leakage monotone in budget" `Quick test_scheme_monotone_in_budget;
    Alcotest.test_case "scheme III uniform" `Quick test_uniform_scheme_really_uniform;
    Alcotest.test_case "scheme II structure" `Quick test_split_scheme_structure;
    Alcotest.test_case "Scheme I matches brute force" `Quick test_scheme_i_matches_bruteforce;
    Alcotest.test_case "tuple synthetic optimum" `Quick test_tuple_synthetic;
    Alcotest.test_case "tuple set sizes" `Quick test_tuple_sets_sized;
    Alcotest.test_case "richer budget dominates" `Quick test_richer_budget_dominates;
    Alcotest.test_case "tuple validation" `Quick test_tuple_validation;
    Alcotest.test_case "spec names" `Quick test_spec_name;
  ]
  @ List.map Generators.to_alcotest
      [
        prop_pareto_front_invariant;
        prop_pareto_covers_inputs;
        prop_scheme_ordering_on_subgrids;
        prop_scheme_i_exact_on_subgrids;
      ]
