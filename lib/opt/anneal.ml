module Component = Nmcache_geometry.Component
module Rng = Nmcache_numerics.Rng

type params = {
  iterations : int;
  t_start : float;
  t_end : float;
  penalty_weight : float;
  seed : int64;
}

let default_params =
  { iterations = 20_000; t_start = 1.0; t_end = 1e-4; penalty_weight = 1e4; seed = 1L }

type result = {
  assignment : Component.assignment;
  leak_w : float;
  access_time : float;
  feasible : bool;
  evaluations : int;
}

let n_components = List.length Component.all_kinds

let minimize_leakage ?(params = default_params) (tables : Scheme.tables) ~delay_budget () =
  if delay_budget <= 0.0 then invalid_arg "Anneal.minimize_leakage: non-positive budget";
  let fault_key =
    Printf.sprintf "seed=%Ld:iters=%d:budget=%.4e" params.seed params.iterations
      delay_budget
  in
  (* retry boundary: an injected transient at the anneal fault point is
     retried (per-attempt arm semantics) before becoming a casualty *)
  Nmcache_engine.Retry.run ~stage:"anneal" (fun ~attempt ~last:_ ->
      Nmcache_engine.Faultpoint.hit ~attempt ~point:"anneal" ~key:fault_key ());
  let leak = tables.Scheme.leak and delay = tables.Scheme.delay in
  let n = Array.length tables.Scheme.knobs in
  let rng = Rng.create ~seed:params.seed in
  (* relative-cost scale: the all-slowest (lowest-leak) state *)
  let floor_leak =
    Array.fold_left (fun acc row -> acc +. Array.fold_left Float.min row.(0) row) 0.0 leak
  in
  let floor_leak = Float.max floor_leak 1e-15 in
  let cost state =
    let l, d = Scheme.totals tables state in
    let excess = Float.max 0.0 (d -. delay_budget) /. delay_budget in
    ((l /. floor_leak) +. (params.penalty_weight *. excess), l, d)
  in
  (* start from the fastest knob per component (always budget-feasible
     if anything is) *)
  let state =
    Array.init n_components (fun c ->
        let best = ref 0 in
        for i = 1 to n - 1 do
          if delay.(c).(i) < delay.(c).(!best) then best := i
        done;
        !best)
  in
  let current_cost = ref ((fun (c, _, _) -> c) (cost state)) in
  let best_state = Array.copy state in
  let best = ref (cost state) in
  (* track the best *feasible* state separately: the annealing cost may
     prefer slightly-infeasible states, but the answer must not *)
  let best_feasible : (float * int array) option ref =
    (let _, l0, d0 = cost state in
     if d0 <= delay_budget then ref (Some (l0, Array.copy state)) else ref None)
  in
  let evaluations = ref 1 in
  let cooling =
    if params.iterations <= 1 then 1.0
    else (params.t_end /. params.t_start) ** (1.0 /. float_of_int params.iterations)
  in
  let temperature = ref params.t_start in
  let accepted = ref 0 in
  for iter = 1 to params.iterations do
    (* cooperative cancellation: a few hundred polls over a 20k-step
       anneal keeps overrun bounded at negligible cost *)
    if iter land 63 = 0 then Nmcache_engine.Deadline.poll ~stage:"anneal";
    let c = Rng.int rng ~bound:n_components in
    let old = state.(c) in
    (* local move in the grid with occasional global jumps *)
    let proposal =
      if Rng.bernoulli rng ~p:0.15 then Rng.int rng ~bound:n
      else begin
        let step = 1 + Rng.int rng ~bound:3 in
        let dir = if Rng.bool rng then step else -step in
        let v = old + dir in
        if v < 0 then 0 else if v >= n then n - 1 else v
      end
    in
    state.(c) <- proposal;
    let (c_new, _, _) as full = cost state in
    incr evaluations;
    let accept =
      c_new <= !current_cost
      || Rng.float rng < Float.exp ((!current_cost -. c_new) /. Float.max !temperature 1e-12)
    in
    if accept then begin
      incr accepted;
      current_cost := c_new;
      let best_cost, _, _ = !best in
      if c_new < best_cost then begin
        best := full;
        Array.blit state 0 best_state 0 n_components
      end;
      let _, l_new, d_new = full in
      if d_new <= delay_budget then begin
        match !best_feasible with
        | Some (l, _) when l <= l_new -> ()
        | Some _ | None -> best_feasible := Some (l_new, Array.copy state)
      end
    end
    else state.(c) <- old;
    temperature := !temperature *. cooling
  done;
  let module Metrics = Nmcache_engine.Metrics in
  Metrics.incr "anneal.runs";
  Metrics.incr ~by:params.iterations "anneal.proposals";
  Metrics.incr ~by:!accepted "anneal.accepted";
  Metrics.incr ~by:!evaluations "anneal.evaluations";
  if params.iterations > 0 then
    Metrics.observe "anneal.acceptance_rate"
      (float_of_int !accepted /. float_of_int params.iterations);
  let chosen_state, leak_w, access_time, feasible =
    match !best_feasible with
    | Some (_, st) ->
      let l, d = Scheme.totals tables st in
      (st, l, d, true)
    | None ->
      let _, l, d = !best in
      (best_state, l, d, false)
  in
  {
    assignment = Scheme.assignment tables chosen_state;
    leak_w;
    access_time;
    feasible;
    evaluations = !evaluations;
  }
