module Units = Nmcache_physics.Units
module Component = Nmcache_geometry.Component
module Fitted_cache = Nmcache_fit.Fitted_cache
module Scheme = Nmcache_opt.Scheme
module Amat = Nmcache_energy.Amat
module Main_memory = Nmcache_energy.Main_memory
module Missrate = Nmcache_workload.Missrate
module Task = Nmcache_engine.Task
module Sweep = Nmcache_engine.Sweep

let reference_estimate ctx config =
  let fitted = Context.fitted ctx config in
  let est = Fitted_cache.eval fitted (Component.uniform (Context.reference_knob ctx)) in
  (fitted, est)

let miss_curve ctx ~l1_size =
  Missrate.averaged_l2_curve ~seed:ctx.Context.seed ~workloads:ctx.Context.workloads
    ~l1_size ~l2_sizes:Context.l2_sizes ~n:ctx.Context.n_sim ()

let m2_of_curve (curve : Missrate.l2_curve) size =
  let sizes = curve.Missrate.l2_sizes in
  let rec find i =
    if i >= Array.length sizes then
      invalid_arg
        (Printf.sprintf
           "Two_level.m2_of_curve: L2 size %d B was not simulated for %S (available: %s) \
            — align the sweep sizes with the curve's l2_sizes"
           size curve.Missrate.workload
           (String.concat ", " (Array.to_list (Array.map string_of_int sizes))))
    else if sizes.(i) = size then curve.Missrate.l2_local_rates.(i)
    else find (i + 1)
  in
  find 0

(* ------------------------------------------------------------------ *)
(* L2 sweeps (T2 single pair, T3 two pairs)                            *)

(* Both L2 sweeps hold the AMAT 8 % above the reference system's, which
   keeps small organisations in play as in the paper's iso-AMAT
   comparisons. *)
let l2_amat_slack = 1.08

type l2_row = {
  l2_size : int;
  m2 : float;
  t_l2_budget : float option;
  result : Scheme.result option;
  l2_leak : float option;
  total_leak : float option;
}

type l2_sweep = {
  target_amat : float;
  m1 : float;
  t_l1 : float;
  l1_leak : float;
  rows : l2_row list;
}

let l2_sweep ctx ~scheme =
  let curve = miss_curve ctx ~l1_size:ctx.Context.l1_size in
  let m1 = curve.Missrate.l1_miss_rate in
  let _, l1_est = reference_estimate ctx (Context.l1_config ctx ()) in
  let t_l1 = l1_est.Fitted_cache.access_time in
  let l1_leak = l1_est.Fitted_cache.leak_w in
  let t_mem = ctx.Context.mem.Main_memory.t_access in
  (* baseline: default L2 at the reference knob *)
  let _, l2_ref = reference_estimate ctx (Context.l2_config ctx ()) in
  let m2_ref = m2_of_curve curve ctx.Context.l2_size in
  let target_amat =
    l2_amat_slack
    *. Amat.two_level ~t_l1 ~t_l2:l2_ref.Fitted_cache.access_time ~t_mem ~m1 ~m2:m2_ref
  in
  (* each size is an independent characterise+optimise kernel; the
     engine fans them out and keeps rows in size order *)
  let rows =
    Array.to_list
      (Sweep.map_array
         (Task.make ~name:"two_level.l2-row" (fun l2_size ->
              let m2 = m2_of_curve curve l2_size in
              let budget = Amat.required_t_l2 ~amat:target_amat ~t_l1 ~t_mem ~m1 ~m2 in
              match budget with
              | None ->
                { l2_size; m2; t_l2_budget = None; result = None; l2_leak = None; total_leak = None }
              | Some t_budget ->
                let tables =
                  Context.tables ctx (Context.l2_config ctx ~size:l2_size ()) ~grid:ctx.Context.grid
                in
                let result = Scheme.minimize tables ~scheme ~delay_budget:t_budget in
                let l2_leak = Option.map (fun (r : Scheme.result) -> r.Scheme.leak_w) result in
                {
                  l2_size;
                  m2;
                  t_l2_budget = Some t_budget;
                  result;
                  l2_leak;
                  total_leak = Option.map (fun l -> l +. l1_leak) l2_leak;
                }))
         Context.l2_sizes)
  in
  { target_amat; m1; t_l1; l1_leak; rows }

let best_l2_size sweep =
  List.fold_left
    (fun acc row ->
      match (row.total_leak, acc) with
      | None, _ -> acc
      | Some l, Some (_, best) when best <= l -> acc
      | Some l, _ -> Some (row.l2_size, l))
    None sweep.rows
  |> Option.map fst

let two_pair_gain ~single ~split =
  List.fold_left2
    (fun acc (r3 : l2_row) (r2 : l2_row) ->
      match (acc, r3.total_leak, r2.total_leak) with
      | None, Some a, Some b when b < a *. 0.999 -> Some (r2.l2_size, 1.0 -. (b /. a))
      | _ -> acc)
    None single.rows split.rows

let size_label bytes =
  if bytes >= 1 lsl 20 then Printf.sprintf "%dMB" (bytes lsr 20)
  else Printf.sprintf "%dKB" (bytes lsr 10)

let l2_table title sweep =
  let rows =
    List.map
      (fun row ->
        let budget =
          match row.t_l2_budget with
          | None -> "-"
          | Some b -> Printf.sprintf "%.0f" (Units.to_ps b)
        in
        let leak = function
          | None -> "infeasible"
          | Some l -> Printf.sprintf "%.3f" (Units.to_mw l)
        in
        let knobs =
          match row.result with
          | None -> "-"
          | Some r ->
            Format.asprintf "%a / %a" Component.pp_knob r.Scheme.assignment.Component.array
              Component.pp_knob r.Scheme.assignment.Component.decoder
        in
        [
          size_label row.l2_size;
          Report.fmt_pct row.m2;
          budget;
          leak row.l2_leak;
          leak row.total_leak;
          knobs;
        ])
      sweep.rows
  in
  Report.table ~title
    ~columns:
      [
        "L2 size";
        "m2 (local)";
        "T_L2 budget (ps)";
        "L2 leak (mW)";
        "L1+L2 leak (mW)";
        "array / periph knobs";
      ]
    ~rows

let l2_single_pair ctx =
  let sweep = l2_sweep ctx ~scheme:Scheme.Uniform in
  let best = Option.map size_label (best_l2_size sweep) in
  [
    Report.note
      (Printf.sprintf
         "AMAT target %.0f ps (m1 = %s, T_L1 = %.0f ps, reference L2 = %s)"
         (Units.to_ps sweep.target_amat) (Report.fmt_pct sweep.m1)
         (Units.to_ps sweep.t_l1) (size_label ctx.Context.l2_size));
    l2_table "L2 sizing, single (Vth,Tox) pair per L2 (paper: bigger L2 leaks less, then turnover)" sweep;
    Report.note
      (Printf.sprintf "minimum total leakage at L2 = %s"
         (Option.value best ~default:"(none feasible)"));
  ]

(* T3 contrasts both schemes at the same target: the paper's finding is
   that per-component pairs shift the optimal L2 to a smaller size with
   less total leakage. *)
let l2_two_pair ctx =
  let sweep3 = l2_sweep ctx ~scheme:Scheme.Uniform in
  let sweep2 = l2_sweep ctx ~scheme:Scheme.Split in
  let leak_cell = function
    | None -> "infeasible"
    | Some l -> Printf.sprintf "%.3f" (Units.to_mw l)
  in
  let rows =
    List.map2
      (fun (r3 : l2_row) (r2 : l2_row) ->
        let knobs =
          match r2.result with
          | None -> "-"
          | Some r ->
            Format.asprintf "%a / %a" Component.pp_knob r.Scheme.assignment.Component.array
              Component.pp_knob r.Scheme.assignment.Component.decoder
        in
        [
          size_label r2.l2_size;
          Report.fmt_pct r2.m2;
          leak_cell r3.total_leak;
          leak_cell r2.total_leak;
          knobs;
        ])
      sweep3.rows sweep2.rows
  in
  let best_of sweep = Option.value (Option.map size_label (best_l2_size sweep)) ~default:"-" in
  [
    Report.note
      (Printf.sprintf "AMAT target %.0f ps (baseline x %.2f)"
         (Units.to_ps sweep2.target_amat) l2_amat_slack);
    Report.table
      ~title:
        "L2 sizing: single pair vs per-component pairs (two pairs shift the optimum to smaller L2s)"
      ~columns:
        [ "L2 size"; "m2 (local)"; "single pair (mW)"; "two pairs (mW)"; "II array / periph" ]
      ~rows;
    Report.note
      (Printf.sprintf "optimal L2: single pair -> %s, per-component pairs -> %s%s"
         (best_of sweep3) (best_of sweep2)
         (match two_pair_gain ~single:sweep3 ~split:sweep2 with
         | None -> ""
         | Some (size, gain) ->
           Printf.sprintf "; at %s the two-pair design leaks %.1f%% less, extending \
                           the competitive range to smaller L2s" (size_label size)
             (100.0 *. gain)));
  ]

(* ------------------------------------------------------------------ *)
(* L1 sweep (T4)                                                       *)

type l1_row = {
  l1_size : int;
  m1 : float;
  t_l1_budget : float option;
  l1_result : Scheme.result option;
  l1_leak : float option;
  l1_total_leak : float option;
}

type l1_sweep = {
  l1_target_amat : float;
  l1_rows : l1_row list;
}

(* The L1 sweep holds the AMAT 5 % above the reference system's. *)
let l1_amat_slack = 1.05

let l1_sweep_rows ctx =
  let t_mem = ctx.Context.mem.Main_memory.t_access in
  (* fixed reference L2 *)
  let _, l2_ref = reference_estimate ctx (Context.l2_config ctx ()) in
  let t_l2 = l2_ref.Fitted_cache.access_time in
  let l2_leak = l2_ref.Fitted_cache.leak_w in
  (* one grid call profiles the whole workload × L1 plane in a single
     fan-out (one measured traversal per pair); every row's curve below
     is derived from those profiles without touching the trace again *)
  let grid =
    Missrate.grid ~seed:ctx.Context.seed ~workloads:ctx.Context.workloads
      ~l1_sizes:Context.l1_sizes ~l2_sizes:Context.l2_sizes ~n:ctx.Context.n_sim ()
  in
  let curve_for l1_size =
    let rec find i =
      if i >= Array.length grid.Missrate.g_l1_sizes then miss_curve ctx ~l1_size
      else if grid.Missrate.g_l1_sizes.(i) = l1_size then grid.Missrate.g_averaged.(i)
      else find (i + 1)
    in
    find 0
  in
  (* baseline with the default L1 *)
  let base_curve = curve_for ctx.Context.l1_size in
  let _, l1_ref = reference_estimate ctx (Context.l1_config ctx ()) in
  let target =
    l1_amat_slack
    *. Amat.two_level ~t_l1:l1_ref.Fitted_cache.access_time ~t_l2 ~t_mem
         ~m1:base_curve.Missrate.l1_miss_rate
         ~m2:(m2_of_curve base_curve ctx.Context.l2_size)
  in
  let rows =
    Array.to_list
      (Sweep.map_array
         (Task.make ~name:"two_level.l1-row" (fun l1_size ->
           let curve = curve_for l1_size in
           let m1 = curve.Missrate.l1_miss_rate in
           let m2 = m2_of_curve curve ctx.Context.l2_size in
           (* AMAT = t_l1 + m1 (t_l2 + m2 t_mem)  =>  budget on t_l1 *)
           let t_budget = target -. (m1 *. (t_l2 +. (m2 *. t_mem))) in
           if t_budget <= 0.0 then
             {
               l1_size;
               m1;
               t_l1_budget = None;
               l1_result = None;
               l1_leak = None;
               l1_total_leak = None;
             }
           else begin
             let tables =
               Context.tables ctx (Context.l1_config ctx ~size:l1_size ()) ~grid:ctx.Context.grid
             in
             let result = Scheme.minimize tables ~scheme:Scheme.Split ~delay_budget:t_budget in
             let l1_leak = Option.map (fun (r : Scheme.result) -> r.Scheme.leak_w) result in
             {
               l1_size;
               m1;
               t_l1_budget = Some t_budget;
               l1_result = result;
               l1_leak;
               l1_total_leak = Option.map (fun l -> l +. l2_leak) l1_leak;
             }
           end))
         Context.l1_sizes)
  in
  { l1_target_amat = target; l1_rows = rows }

let best_l1_size sweep =
  List.fold_left
    (fun acc row ->
      match (row.l1_total_leak, acc) with
      | None, _ -> acc
      | Some l, Some (_, best) when best <= l -> acc
      | Some l, _ -> Some (row.l1_size, l))
    None sweep.l1_rows
  |> Option.map fst

let l1_sweep ctx =
  let sweep = l1_sweep_rows ctx in
  let rows =
    List.map
      (fun row ->
        let opt = function
          | None -> "infeasible"
          | Some v -> Printf.sprintf "%.3f" (Units.to_mw v)
        in
        let budget =
          match row.t_l1_budget with
          | None -> "-"
          | Some b -> Printf.sprintf "%.0f" (Units.to_ps b)
        in
        [ size_label row.l1_size; Report.fmt_pct row.m1; budget; opt row.l1_leak; opt row.l1_total_leak ])
      sweep.l1_rows
  in
  [
    Report.note
      (Printf.sprintf "AMAT target %.0f ps; L2 fixed at %s, reference knobs"
         (Units.to_ps sweep.l1_target_amat)
         (size_label ctx.Context.l2_size));
    Report.table ~title:"L1 sizing under a fixed L2 (paper: small L1 is optimal)"
      ~columns:[ "L1 size"; "m1"; "T_L1 budget (ps)"; "L1 leak (mW)"; "L1+L2 leak (mW)" ]
      ~rows;
    Report.note
      (Printf.sprintf "minimum total leakage at L1 = %s"
         (Option.value (Option.map size_label (best_l1_size sweep)) ~default:"(none)"));
  ]
