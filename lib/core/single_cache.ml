module Units = Nmcache_physics.Units
module Component = Nmcache_geometry.Component
module Fitted_cache = Nmcache_fit.Fitted_cache
module Scheme = Nmcache_opt.Scheme
module Grid = Nmcache_opt.Grid
module Task = Nmcache_engine.Task
module Sweep = Nmcache_engine.Sweep

let uniform_point fitted knob =
  let est = Fitted_cache.eval fitted (Component.uniform knob) in
  (Units.to_ps est.Fitted_cache.access_time, Units.to_mw est.Fitted_cache.leak_w)

let figure1_series ctx =
  let fitted = Context.fitted ctx (Context.l1_config ctx ()) in
  let grid = ctx.Context.grid in
  let vth_sweep tox =
    Array.to_list
      (Array.map (fun vth -> uniform_point fitted (Component.knob ~vth ~tox)) grid.Grid.vths)
  in
  let tox_sweep vth =
    Array.to_list
      (Array.map (fun tox -> uniform_point fitted (Component.knob ~vth ~tox)) grid.Grid.toxs)
  in
  let sort = List.sort (fun (a, _) (b, _) -> Float.compare a b) in
  [
    ("Tox=10A", sort (vth_sweep (Units.angstrom 10.0)));
    ("Tox=14A", sort (vth_sweep (Units.angstrom 14.0)));
    ("Vth=200mV", sort (tox_sweep 0.2));
    ("Vth=400mV", sort (tox_sweep 0.4));
  ]

let span points =
  let xs = List.map fst points and ys = List.map snd points in
  let min_max l = (List.fold_left Float.min Float.infinity l,
                   List.fold_left Float.max Float.neg_infinity l) in
  (min_max xs, min_max ys)

let figure1 ctx =
  let series = figure1_series ctx in
  let chart =
    Report.chart ~title:"Figure 1: Fixed Vth vs Fixed Tox (16KB cache)"
      ~x_label:"access time (ps)" ~y_label:"leakage power (mW)"
      (List.map (fun (label, points) -> { Report.label; points }) series)
  in
  (* sensitivity summary: the paper's reading of the figure *)
  let rows =
    List.map
      (fun (label, points) ->
        let (x0, x1), (y0, y1) = span points in
        [
          label;
          Printf.sprintf "%.0f..%.0f" x0 x1;
          Printf.sprintf "%.0f" (x1 -. x0);
          Printf.sprintf "%.2f..%.2f" y0 y1;
          Printf.sprintf "%.1fx" (y1 /. Float.max y0 1e-9);
        ])
      series
  in
  let table =
    Report.table ~title:"Figure 1 sensitivity summary"
      ~columns:[ "curve"; "delay range (ps)"; "delay span (ps)"; "leakage (mW)"; "leak ratio" ]
      ~rows
  in
  [ chart; table ]

type scheme_row = {
  budget : float;
  results : (Scheme.t * Scheme.result option) list;
}

let default_budgets tables =
  let lo = Scheme.fastest tables *. 1.02 and hi = Scheme.slowest tables *. 0.98 in
  Array.init 9 (fun i -> lo +. ((hi -. lo) *. float_of_int i /. 8.0))

let scheme_rows ctx ?budgets () =
  let tables = Context.tables ctx (Context.l1_config ctx ()) ~grid:ctx.Context.grid in
  let budgets = match budgets with Some b -> b | None -> default_budgets tables in
  (* every (budget, scheme) search is independent; fan budgets out and
     keep rows in budget order *)
  Array.to_list
    (Sweep.map_array
       (Task.make ~name:"single_cache.scheme-row" (fun budget ->
            {
              budget;
              results =
                List.map
                  (fun scheme ->
                    (scheme, Scheme.minimize tables ~scheme ~delay_budget:budget))
                  Scheme.all;
            }))
       budgets)

let array_is_conservative (a : Component.assignment) =
  let arr = a.Component.array in
  List.for_all
    (fun kind ->
      let k = Component.get a kind in
      arr.Component.vth >= k.Component.vth -. 1e-12
      && arr.Component.tox >= k.Component.tox -. 1e-16)
    [ Component.Decoder; Component.Addr_drivers; Component.Data_drivers ]

let scheme_table ctx =
  let rows = scheme_rows ctx () in
  let cell = function
    | None -> "infeasible"
    | Some (r : Scheme.result) -> Printf.sprintf "%.3f" (Units.to_mw r.Scheme.leak_w)
  in
  let find s row = List.assoc s row.results in
  let body =
    List.map
      (fun row ->
        let i = find Scheme.Independent row in
        let ii = find Scheme.Split row in
        let iii = find Scheme.Uniform row in
        let ratio =
          match (i, ii) with
          | Some a, Some b -> Printf.sprintf "%.2f" (b.Scheme.leak_w /. a.Scheme.leak_w)
          | _ -> "-"
        in
        let conservative =
          match (i, ii) with
          | Some a, Some b ->
            if
              array_is_conservative a.Scheme.assignment
              && array_is_conservative b.Scheme.assignment
            then "yes"
            else "no"
          | _ -> "-"
        in
        [
          Printf.sprintf "%.0f" (Units.to_ps row.budget);
          cell i;
          cell ii;
          cell iii;
          ratio;
          conservative;
        ])
      rows
  in
  let table =
    Report.table
      ~title:"Scheme I/II/III minimum leakage vs delay constraint (16KB cache)"
      ~columns:
        [ "budget (ps)"; "I (mW)"; "II (mW)"; "III (mW)"; "II/I"; "array conservative" ]
      ~rows:body
  in
  let note =
    Report.note
      "Paper (sec.4): III worst, I best, II close behind I; arrays always get high \
       Vth / thick Tox with fast peripherals."
  in
  [ table; note ]
