module Units = Nmcache_physics.Units
module Component = Nmcache_geometry.Component
module Scheme = Nmcache_opt.Scheme
module Tuple_problem = Nmcache_opt.Tuple_problem
module System = Nmcache_energy.System
module Main_memory = Nmcache_energy.Main_memory
module Missrate = Nmcache_workload.Missrate

let system_for ctx ~workloads =
  let curve =
    Missrate.averaged_l2_curve ~seed:ctx.Context.seed ~workloads
      ~l1_size:ctx.Context.l1_size ~l2_sizes:Context.l2_sizes ~n:ctx.Context.n_sim ()
  in
  let m2 =
    let rec find i =
      if curve.Missrate.l2_sizes.(i) = ctx.Context.l2_size then
        curve.Missrate.l2_local_rates.(i)
      else find (i + 1)
    in
    find 0
  in
  System.make
    ~l1:(Context.fitted ctx (Context.l1_config ctx ()))
    ~l2:(Context.fitted ctx (Context.l2_config ctx ()))
    ~mem:ctx.Context.mem ~m1:curve.Missrate.l1_miss_rate ~m2

let system ctx = system_for ctx ~workloads:ctx.Context.workloads

(* Figure 2's four knob groups (L1/L2 × cell/periphery) as columns
   over the grid's knobs, read from the two caches' tables and summed
   as [System.eval_group] sums them: from 0.0, the array alone or the
   decoder, address drivers and data drivers in that order. *)
let group_columns (tables : Scheme.tables) =
  let column values kinds =
    Array.init (Array.length tables.Scheme.knobs) (fun i ->
        List.fold_left
          (fun acc kind -> acc +. values.(Component.kind_index kind).(i))
          0.0 kinds)
  in
  let periph = [ Component.Decoder; Component.Addr_drivers; Component.Data_drivers ] in
  let group values = (column values [ Component.Array_sense ], column values periph) in
  (group tables.Scheme.delay, group tables.Scheme.leak, group tables.Scheme.energy)

let figure2_curves ?workloads ctx =
  let workloads = Option.value workloads ~default:ctx.Context.workloads in
  let sys = system_for ctx ~workloads in
  let grid = ctx.Context.coarse_grid in
  let columns config = group_columns (Context.tables ctx config ~grid) in
  let (d0, d1), (l0, l1), (e0, e1) = columns (Context.l1_config ctx ()) in
  let (d2, d3), (l2, l3), (e2, e3) = columns (Context.l2_config ctx ()) in
  let m1 = System.m1 sys and m2 = System.m2 sys in
  let mem = System.mem sys in
  let t_mem = mem.Main_memory.t_access in
  let e_mem = mem.Main_memory.e_access in
  let standby = mem.Main_memory.standby_w in
  (* one row: groups 1..3 fixed, every allowed pair of the L1 array.
     The L2 terms, m1·(t_l2 + m2·t_mem) and m1·(e2 + e3 + m2·e_mem),
     are the row's constants; every other sum keeps the association
     order of amat = t_l1 + m1·(t_l2 + m2·t_mem), dyn = e0 + e1 +
     m1·(...), leak = l0 + l1 + l2 + l3 + standby, so each answer is
     bit for bit the per-assignment one *)
  let eval ~groups ~pairs ~amat ~energy =
    let i1 = groups.(1) and i2 = groups.(2) and i3 = groups.(3) in
    let t_miss = m1 *. (d2.(i2) +. d3.(i3) +. (m2 *. t_mem)) in
    let e_miss = m1 *. (e2.(i2) +. e3.(i3) +. (m2 *. e_mem)) in
    let d_1 = d1.(i1) and e_1 = e1.(i1) and l_1 = l1.(i1) in
    let l_2 = l2.(i2) and l_3 = l3.(i3) in
    for k = 0 to Array.length pairs - 1 do
      let i0 = pairs.(k) in
      let t = d0.(i0) +. d_1 +. t_miss in
      let dyn = e0.(i0) +. e_1 +. e_miss in
      let leak = l0.(i0) +. l_1 +. l_2 +. l_3 +. standby in
      amat.(k) <- t;
      energy.(k) <- dyn +. (leak *. t)
    done
  in
  Tuple_problem.curves ~grid ~n_groups:4 ~eval ~specs:Tuple_problem.figure2_specs

let energy_at points ~amat =
  List.fold_left
    (fun acc (p : Tuple_problem.point) ->
      if p.Tuple_problem.amat <= amat then
        match acc with
        | Some best when best <= p.Tuple_problem.energy -> acc
        | _ -> Some p.Tuple_problem.energy
      else acc)
    None points

let figure2 ctx =
  let curves = figure2_curves ctx in
  let series =
    List.map
      (fun (spec, points) ->
        {
          Report.label = Tuple_problem.spec_name spec;
          points =
            List.map
              (fun (p : Tuple_problem.point) ->
                (Units.to_ps p.Tuple_problem.amat, Units.to_pj p.Tuple_problem.energy))
              points;
        })
      curves
  in
  let chart =
    Report.chart ~title:"Figure 2: (Tox, Vth) tuple problem — energy vs AMAT"
      ~x_label:"AMAT (ps)" ~y_label:"total energy per access (pJ)" series
  in
  (* cross-sections at fixed AMAT targets *)
  let amats =
    let all = List.concat_map (fun (_, pts) -> List.map (fun (p : Tuple_problem.point) -> p.Tuple_problem.amat) pts) curves in
    match all with
    | [] -> [||]
    | _ ->
      let lo = List.fold_left Float.min Float.infinity all in
      let hi = List.fold_left Float.max Float.neg_infinity all in
      Array.init 5 (fun i -> lo +. ((hi -. lo) *. (0.15 +. (0.175 *. float_of_int i))))
  in
  let rows =
    Array.to_list
      (Array.map
         (fun amat ->
           Printf.sprintf "%.0f" (Units.to_ps amat)
           :: List.map
                (fun (_, points) ->
                  match energy_at points ~amat with
                  | None -> "-"
                  | Some e -> Printf.sprintf "%.1f" (Units.to_pj e))
                curves)
         amats)
  in
  let table =
    Report.table ~title:"Energy (pJ) at fixed AMAT targets"
      ~columns:
        ("AMAT (ps)" :: List.map (fun (s, _) -> Tuple_problem.spec_name s) curves)
      ~rows
  in
  [
    chart;
    table;
    Report.note
      "Paper (sec.5): best is 2 Tox + 3 Vth; 2 Tox + 2 Vth within noise; a single Tox \
       with dual Vth beats dual Tox with single Vth (Vth is the stronger knob).";
  ]
