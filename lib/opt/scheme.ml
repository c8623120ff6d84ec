module Component = Nmcache_geometry.Component
module Fitted_cache = Nmcache_fit.Fitted_cache
module Task = Nmcache_engine.Task
module Sweep = Nmcache_engine.Sweep

type t = Independent | Split | Uniform

let all = [ Independent; Split; Uniform ]
let name = function Independent -> "I" | Split -> "II" | Uniform -> "III"

let of_name s =
  match String.lowercase_ascii s with
  | "i" | "1" | "independent" -> Some Independent
  | "ii" | "2" | "split" -> Some Split
  | "iii" | "3" | "uniform" -> Some Uniform
  | _ -> None

type result = {
  scheme : t;
  assignment : Component.assignment;
  leak_w : float;
  access_time : float;
}

type tables = {
  knobs : Component.knob array;
  leak : float array array;
  delay : float array array;
  energy : float array array;
}

(* one task per knob: evaluate every component's fitted leak, delay and
   energy there; columns land in knob order, so the tables are
   identical to a sequential build *)
let table_task fitted =
  Task.make ~name:"scheme.tables" (fun knob ->
      let eval f = Array.of_list (List.map (fun kind -> f kind knob) Component.all_kinds) in
      ( eval (Fitted_cache.leak_of fitted),
        eval (Fitted_cache.delay_of fitted),
        eval (Fitted_cache.energy_of fitted) ))

let n_components = List.length Component.all_kinds

let tables fitted ~grid =
  let knobs = Grid.knobs grid in
  let columns = Sweep.map_array (table_task fitted) knobs in
  let per pick =
    Array.init n_components (fun c -> Array.map (fun col -> (pick col).(c)) columns)
  in
  {
    knobs;
    leak = per (fun (l, _, _) -> l);
    delay = per (fun (_, d, _) -> d);
    energy = per (fun (_, _, e) -> e);
  }

let assignment tables idx =
  List.fold_left
    (fun acc kind ->
      Component.set acc kind tables.knobs.(idx.(Component.kind_index kind)))
    (Component.uniform tables.knobs.(0))
    Component.all_kinds

let totals tables idx =
  let leak = ref 0.0 and delay = ref 0.0 in
  for c = 0 to n_components - 1 do
    leak := !leak +. tables.leak.(c).(idx.(c));
    delay := !delay +. tables.delay.(c).(idx.(c))
  done;
  (!leak, !delay)

let result_of scheme tables idx =
  let leak_w, access_time = totals tables idx in
  { scheme; assignment = assignment tables idx; leak_w; access_time }

(* Scheme III: one knob index for all components. *)
let minimize_uniform tables ~delay_budget =
  let n = Array.length tables.knobs in
  let best = ref None in
  for i = 0 to n - 1 do
    let idx = Array.make n_components i in
    let leak, delay = totals tables idx in
    if delay <= delay_budget then
      match !best with
      | Some (_, l) when l <= leak -> ()
      | _ -> best := Some (idx, leak)
  done;
  Option.map (fun (idx, _) -> result_of Uniform tables idx) !best

(* Scheme II: index i for the array, j for the three peripherals.  The
   outer (array-knob) loop fans out across domains; each task scans its
   peripheral column and the per-i bests are reduced in index order, so
   ties resolve to the same (i, j) the sequential double loop picks. *)
let minimize_split tables ~delay_budget =
  let n = Array.length tables.knobs in
  let array_c = Component.kind_index Component.Array_sense in
  let row_task =
    Task.make ~name:"scheme.split" (fun i ->
        let best = ref None in
        for j = 0 to n - 1 do
          let idx = Array.make n_components j in
          idx.(array_c) <- i;
          let leak, delay = totals tables idx in
          if delay <= delay_budget then
            match !best with
            | Some (_, l) when l <= leak -> ()
            | _ -> best := Some (idx, leak)
        done;
        !best)
  in
  let row_bests = Sweep.map_array row_task (Array.init n Fun.id) in
  let best =
    Array.fold_left
      (fun acc cand ->
        match (acc, cand) with
        | Some (_, l), Some (_, leak) when l <= leak -> acc
        | _, Some _ -> cand
        | _, None -> acc)
      None row_bests
  in
  Option.map (fun (idx, _) -> result_of Split tables idx) best

(* Scheme I: exact search over Pareto fronts.  A knob that another beats
   on both delay and leakage is never part of an optimum, nor is a pair
   of knobs for two components that another pair beats on both sums
   (float addition is monotone).  So only the (delay, leak) front of
   pairs for components 0+1 and the one for 2+3 matter, each built from
   the per-component fronts.  The 2+3 front is sorted by rising delay
   and falling leakage, so for each 0+1 point the best partner is the
   last one that still fits: a binary search on the pair sum, with a few
   ulps of slack, then a walk back to the first partner the sequential
   sum of [totals] accepts — feasibility means exactly what it means to
   every other search here. *)
let pair_front tables c =
  let front c' =
    Pareto.front
      ~key:(fun i -> (tables.delay.(c').(i), tables.leak.(c').(i)))
      (List.init (Array.length tables.knobs) Fun.id)
  in
  let lo = front c and hi = front (c + 1) in
  Pareto.front
    ~key:(fun (i, j) ->
      ( tables.delay.(c).(i) +. tables.delay.(c + 1).(j),
        tables.leak.(c).(i) +. tables.leak.(c + 1).(j) ))
    (List.concat_map (fun i -> List.map (fun j -> (i, j)) hi) lo)
  |> Array.of_list

let minimize_independent tables ~delay_budget =
  Nmcache_engine.Trace.with_stage "scheme.pareto" @@ fun () ->
  let front01 = pair_front tables 0 and front23 = pair_front tables 2 in
  let delay23 (i2, i3) = tables.delay.(2).(i2) +. tables.delay.(3).(i3) in
  let slack = delay_budget *. (1.0 +. (4.0 *. epsilon_float)) in
  let best = ref None in
  Array.iter
    (fun (i0, i1) ->
      let d01 = tables.delay.(0).(i0) +. tables.delay.(1).(i1) in
      (* last index k with d01 + delay23 k within the slack, or -1 *)
      let rec search lo hi =
        if lo >= hi then lo - 1
        else
          let mid = (lo + hi) / 2 in
          if d01 +. delay23 front23.(mid) <= slack then search (mid + 1) hi
          else search lo mid
      in
      let rec fit k =
        if k < 0 then None
        else
          let i2, i3 = front23.(k) in
          let idx = [| i0; i1; i2; i3 |] in
          let leak, delay = totals tables idx in
          if delay <= delay_budget then Some (idx, leak) else fit (k - 1)
      in
      match (fit (search 0 (Array.length front23)), !best) with
      | Some (_, leak), Some (_, l) when l <= leak -> ()
      | (Some _ as cand), _ -> best := cand
      | None, _ -> ())
    front01;
  Option.map (fun (idx, _) -> result_of Independent tables idx) !best

let minimize tables ~scheme ~delay_budget =
  if delay_budget <= 0.0 then invalid_arg "Scheme.minimize: non-positive budget";
  match scheme with
  | Uniform -> minimize_uniform tables ~delay_budget
  | Split -> minimize_split tables ~delay_budget
  | Independent -> minimize_independent tables ~delay_budget

(* per component, the [pick]-most delay over the knobs, summed *)
let extreme_access_time tables ~pick =
  Array.fold_left
    (fun total row -> total +. Array.fold_left pick row.(0) row)
    0.0 tables.delay

let fastest tables = extreme_access_time tables ~pick:Float.min
let slowest tables = extreme_access_time tables ~pick:Float.max
let minimize_leakage fitted ~grid = minimize (tables fitted ~grid)
let fastest_access_time fitted ~grid = fastest (tables fitted ~grid)
