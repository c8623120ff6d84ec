module Units = Nmcache_physics.Units
module Component = Nmcache_geometry.Component
module Matrix = Nmcache_numerics.Matrix
module Linsolve = Nmcache_numerics.Linsolve
module Stats = Nmcache_numerics.Stats
module Minimize = Nmcache_numerics.Minimize
module Metrics = Nmcache_engine.Metrics
module Fault = Nmcache_engine.Fault
module Faultpoint = Nmcache_engine.Faultpoint
module Retry = Nmcache_engine.Retry
module Deadline = Nmcache_engine.Deadline

type samples = (Component.knob * Component.summary) array

(* A deterministic fingerprint of a sample set: enough to tell fits of
   different components/configs apart in fault-point keys and fault
   details, stable across runs and --jobs settings. *)
let samples_key (samples : samples) =
  let n = Array.length samples in
  if n = 0 then "n=0"
  else
    let (k0 : Component.knob), (s0 : Component.summary) = samples.(0) in
    let _, (sn : Component.summary) = samples.(n - 1) in
    Printf.sprintf "n=%d:vth0=%.3f:tox0=%.1f:leak0=%.4e:delayN=%.4e" n
      k0.Component.vth
      (Units.to_angstrom k0.Component.tox)
      s0.Component.leak_w sn.Component.delay

(* Fault boundary for one compact-model fit, now a retry boundary: the
   armed fault point fires first (chaos harness — per-attempt, so
   transient arms recover under retry), then a singular design escaping
   the solver is mapped into a typed fault instead of a raw exception.
   Retryable faults (injected, fit_diverged) get up to the policy's
   attempt budget with deterministic backoff before escaping. *)
let fit_boundary ~stage ~key f =
  Retry.run ~stage ~key (fun ~attempt ~last ->
      Faultpoint.hit ~attempt ~point:stage ~key ();
      try f ~attempt ~last with
      | Linsolve.Singular ->
        Fault.error ~kind:Fault.Singular_system ~stage
          ("linear system singular for samples " ^ key))

(* A NaN or Inf sample would run the whole start grid and the damping
   loop on garbage before the fitted parameters showed it, so every fit
   rejects one up front, naming where it is. *)
let check_samples ~stage ~key ~field value (samples : samples) =
  let check i name v =
    if not (Float.is_finite v) then
      Fault.error ~kind:Fault.Non_finite ~stage
        (Printf.sprintf "sample %d %s is %g (samples %s)" i name v key)
  in
  Array.iteri
    (fun i ((k : Component.knob), s) ->
      check i "vth" k.Component.vth;
      check i "tox" k.Component.tox;
      check i field (value s))
    samples

let check_model_finite ~stage ~key params =
  if not (List.for_all Float.is_finite params) then
    Fault.error ~kind:Fault.Non_finite ~stage
      ("fitted parameters non-finite for samples " ^ key)

(* One fit attempt's outcome: the linear coefficients and exponents at
   the point the Gauss–Newton stopped. *)
type attempt = {
  coef : float array;
  alpha : float array;
  residual : float;  (* ‖relative residual‖₂ *)
  iterations : int;
  converged : bool;
}

(* One metrics sample per fit *attempt*: iteration count and final
   residual, labelled by which compact model was being fitted.  The
   [lm.*] names predate the variable-projection fits and are kept
   because dashboards and the benchmark read them.  With retries armed,
   [lm.fits] counts attempts, not fit_leak/fit_delay calls. *)
let record_attempt ~model (a : attempt) =
  Metrics.incr "lm.fits";
  if a.converged then Metrics.incr "lm.converged";
  Metrics.observe "lm.iterations" (float_of_int a.iterations);
  Metrics.observe ("lm." ^ model ^ ".iterations") (float_of_int a.iterations);
  Metrics.observe ("lm." ^ model ^ ".residual") a.residual

let record_quality ~model (quality : Model.quality) =
  Metrics.observe ("fit." ^ model ^ ".r2") quality.Model.r2;
  Metrics.observe ("fit." ^ model ^ ".rms_rel") quality.Model.rms_rel

(* Divergence policy at the retry boundary.  An unconverged attempt
   raises Fit_diverged — the retry boundary re-fits from the next-best
   start, and exhaustion is counted as exhaustion (never as a
   recovery).  The first attempt's result is stashed so the caller can
   degrade gracefully when every attempt diverges: the *canonical
   first-attempt* model is recorded as a Fit_diverged casualty and
   returned, making a run whose retries never converge byte-identical
   (models, fault details, CSVs) to a run with retries disabled.  The
   raised detail quotes the canonical result for the same reason. *)
let settle ~model ~key ~attempt ~first (a : attempt) =
  if a.converged then a
  else begin
    if attempt = 1 then first := Some a;
    let canonical = match !first with Some r -> r | None -> a in
    Fault.error ~kind:Fault.Fit_diverged ~stage:("fit." ^ model)
      (Printf.sprintf "unconverged after %d iterations, residual %.3e (samples %s)"
         canonical.iterations canonical.residual key)
  end

(* Relative-error weights: leakage spans decades, and the optimiser
   cares about being right everywhere on the grid, not just at the
   leaky corner. *)
let weights ys = Array.map (fun y -> 1.0 /. Float.max (y *. y) 1e-60) ys

let quality_of ~actual ~predicted =
  {
    Model.r2 = Stats.r_squared ~actual ~predicted;
    max_rel = Stats.max_rel_error ~actual ~predicted;
    rms_rel = Stats.rms_rel_error ~actual ~predicted;
  }

let quality_on samples ~value ~eval =
  quality_of
    ~actual:(Array.map (fun (_, s) -> value s) samples)
    ~predicted:
      (Array.map
         (fun ((k : Component.knob), _) -> eval ~vth:k.Component.vth ~tox:k.Component.tox)
         samples)

let quality_leak m samples =
  quality_on samples ~value:(fun s -> s.Component.leak_w) ~eval:(Model.eval_leak m)

let quality_delay m samples =
  quality_on samples ~value:(fun s -> s.Component.delay) ~eval:(Model.eval_delay m)

(* --- variable projection ------------------------------------------- *)

(* Both compact models are separable (Golub–Pereyra): for fixed
   exponents they are linear in their coefficients, and the weighted
   QR solve gives those exactly, so each fit is a one- or two-parameter
   problem over the relative residuals r that solve leaves.  Damped
   Gauss–Newton runs on the exponents with Kaufman's Jacobian: column k
   is the part of ∂P/∂alpha_k (relative) that the design cannot absorb,
   which makes Jᵀr the exact gradient.  Each point's design is
   factored once; its coefficients and every Jacobian column are solves
   against that one factorisation. *)

(* One exponent: it fills design column [col] with exp(alpha·x). *)
type axis = {
  col : int;
  x : float array;       (* the knob, per sample *)
  values : float array;  (* its distinct values *)
  slot : int array;      (* sample -> its value's index in [values] *)
  ex : float array;      (* exp(alpha·value) per distinct value, workspace *)
  grid : float array;    (* the exponent's start grid *)
}

(* Designs are column-major float arrays, the layout the
   factorisation reads: element (i, j) is at [j·n + i]. *)
type problem = {
  n : int;               (* samples *)
  nc : int;              (* design columns *)
  ys : float array;
  w : float array;       (* relative-error weights *)
  den : float array;     (* max(|y|, 1e-30): residuals are relative *)
  axes : axis array;     (* one or two exponents *)
  fixed : float array;   (* the design's exponent-free columns *)
}

let axis ~col ~grid x =
  let values = ref [] in
  Array.iter (fun v -> if not (List.exists (Float.equal v) !values) then values := v :: !values) x;
  let values = Array.of_list (List.rev !values) in
  let slot =
    Array.map
      (fun v ->
        let rec find u = if Float.equal values.(u) v then u else find (u + 1) in
        find 0)
      x
  in
  { col; x; values; slot; ex = Array.make (Array.length values) 0.0; grid }

(* [fixed] is the n × nc design with its exponent-free columns set *)
let problem ~ys ~axes ~fixed =
  let n = Array.length ys in
  {
    n;
    nc = Array.length fixed / n;
    ys;
    w = weights ys;
    den = Array.map (fun y -> Float.max (Float.abs y) 1e-30) ys;
    axes;
    fixed;
  }

(* The projection at one exponent point, in a reusable workspace. *)
type point = {
  alpha : float array;
  design : float array;
  qr : Linsolve.qr;
  coef : float array;
  r : float array;       (* relative residuals *)
  mutable cost : float;  (* ‖r‖₂ *)
}

let point d =
  {
    alpha = Array.make (Array.length d.axes) 0.0;
    design = Array.copy d.fixed;
    qr = Linsolve.qr ~rows:d.n ~cols:d.nc;
    coef = Array.make d.nc 0.0;
    r = Array.make d.n 0.0;
    cost = 0.0;
  }

let dot u v =
  let acc = ref 0.0 in
  for i = 0 to Array.length u - 1 do
    acc := !acc +. (u.(i) *. v.(i))
  done;
  !acc

(* relative residuals (Φc − g)/|y| of the weighted solve Φc ≈ g *)
let residuals d design coef g r =
  for i = 0 to d.n - 1 do
    let acc = ref 0.0 in
    for j = 0 to d.nc - 1 do
      acc := !acc +. (design.((j * d.n) + i) *. coef.(j))
    done;
    r.(i) <- (!acc -. g.(i)) /. d.den.(i)
  done

(* factor the design at [p.alpha] and solve for its coefficients *)
let project d p =
  for k = 0 to Array.length d.axes - 1 do
    let ax = d.axes.(k) in
    for u = 0 to Array.length ax.values - 1 do
      ax.ex.(u) <- Float.exp (p.alpha.(k) *. ax.values.(u))
    done;
    for i = 0 to d.n - 1 do
      p.design.((ax.col * d.n) + i) <- ax.ex.(ax.slot.(i))
    done
  done;
  Linsolve.factor_weighted p.qr p.design ~weights:d.w;
  Linsolve.solve_into p.qr d.ys p.coef;
  residuals d p.design p.coef d.ys p.r;
  p.cost <- Float.sqrt (dot p.r p.r)

(* start-grid point [g], the first exponent's grid varying slowest *)
let load_grid_point d p g =
  let g = ref g in
  for k = Array.length d.axes - 1 downto 0 do
    let grid = d.axes.(k).grid in
    p.alpha.(k) <- grid.(!g mod Array.length grid);
    g := !g / Array.length grid
  done;
  project d p

(* The start grid's points, best first, ranked in one workspace; a
   singular point is no start.  Raises [Linsolve.Singular] when every
   point is. *)
let rank_starts d p =
  let size = Array.fold_left (fun acc ax -> acc * Array.length ax.grid) 1 d.axes in
  let costs = Array.make size Float.nan in
  let ok = ref [] in
  for g = size - 1 downto 0 do
    match load_grid_point d p g with
    | () ->
      costs.(g) <- p.cost;
      ok := g :: !ok
    | exception Linsolve.Singular -> ()
  done;
  if !ok = [] then raise Linsolve.Singular;
  let starts = Array.of_list !ok in
  Array.stable_sort (fun g h -> Float.compare costs.(g) costs.(h)) starts;
  starts

(* the Marquardt-damped Gauss–Newton step for one or two exponents;
   false when the damped system is not positive definite or the step
   is not finite *)
let damped_step ~h ~grad ~lambda step =
  match step with
  | [| _ |] ->
    let vv' = h.(0).(0) *. (1.0 +. lambda) in
    step.(0) <- -.grad.(0) /. vv';
    vv' > 0.0 && Float.is_finite step.(0)
  | _ ->
    let vv = h.(0).(0) and vt = h.(0).(1) and tt = h.(1).(1) in
    let gv = grad.(0) and gt = grad.(1) in
    let vv' = vv *. (1.0 +. lambda) and tt' = tt *. (1.0 +. lambda) in
    let det = (vv' *. tt') -. (vt *. vt) in
    let dv = ((-.gv *. tt') +. (gt *. vt)) /. det
    and dt = ((-.gt *. vv') +. (gv *. vt)) /. det in
    step.(0) <- dv;
    step.(1) <- dt;
    det > 0.0 && Float.is_finite dv && Float.is_finite dt

let norm v = if Array.length v = 1 then Float.abs v.(0) else Float.hypot v.(0) v.(1)

let vp_max_iter = 100
let vp_step_tol = 1e-10
let vp_grad_tol = 1e-10
let vp_max_damping_tries = 30

let gauss_newton ~check d start spare =
  let m = Array.length d.axes and n = d.n in
  let jac = Array.init m (fun _ -> Array.make n 0.0) in
  let g = Array.make n 0.0 and c = Array.make d.nc 0.0 in
  let h = Array.init m (fun _ -> Array.make m 0.0) and grad = Array.make m 0.0 in
  let step = Array.make m 0.0 in
  (* Kaufman's columns at [p], solved against p's factorisation *)
  let kaufman p =
    for k = 0 to m - 1 do
      let ax = d.axes.(k) and jk = jac.(k) in
      let a = p.coef.(ax.col) in
      for i = 0 to n - 1 do
        g.(i) <- a *. ax.x.(i) *. p.design.((ax.col * n) + i)
      done;
      Linsolve.solve_into p.qr g c;
      residuals d p.design c g jk;
      for i = 0 to n - 1 do
        jk.(i) <- -.jk.(i)
      done
    done
  in
  let rec iterate p q lambda it =
    check ();
    kaufman p;
    for k = 0 to m - 1 do
      for l = k to m - 1 do
        h.(k).(l) <- dot jac.(k) jac.(l);
        h.(l).(k) <- h.(k).(l)
      done;
      grad.(k) <- dot jac.(k) p.r
    done;
    (* stationary: r is orthogonal to every Jacobian column *)
    let stationary = ref true in
    for k = 0 to m - 1 do
      stationary :=
        !stationary && Float.abs grad.(k) <= vp_grad_tol *. Float.sqrt h.(k).(k) *. p.cost
    done;
    if !stationary then (p, it, true)
    else if it >= vp_max_iter then (p, it, false)
    else
      (* Marquardt damping, raised until the step lowers the cost; the
         trial point is built in [q], which becomes current on success *)
      let rec damped lambda tries =
        if tries >= vp_max_damping_tries then None
        else
          let accepted =
            damped_step ~h ~grad ~lambda step
            && begin
              for k = 0 to m - 1 do
                q.alpha.(k) <- p.alpha.(k) +. step.(k)
              done;
              match project d q with
              | () -> q.cost < p.cost
              | exception Linsolve.Singular -> false
            end
          in
          if accepted then Some lambda
          else damped (Float.max (lambda *. 10.0) 1e-12) (tries + 1)
      in
      match damped lambda 0 with
      | None ->
        (* no damping lowers the cost: a minimum to rounding *)
        (p, it + 1, true)
      | Some lambda ->
        if norm step <= vp_step_tol *. (norm q.alpha +. vp_step_tol) then (q, it + 1, true)
        else iterate q p (lambda /. 10.0) (it + 1)
  in
  let p, iterations, converged = iterate start spare 0.0 0 in
  { coef = Array.copy p.coef; alpha = Array.copy p.alpha; residual = p.cost; iterations;
    converged }

(* The shared fit: attempt k runs Gauss–Newton from the k-th best
   start-grid point.  The ranking depends only on the samples, so it
   is computed once and shared across retry attempts (lazy memoises
   exceptions too, and a grid that is singular everywhere is not
   retryable anyway). *)
let fit_separable ~model ~key d ~model_of ~quality =
  let stage = "fit." ^ model in
  let finish (a : attempt) =
    check_model_finite ~stage ~key (Array.to_list (Array.append a.coef a.alpha));
    let m = model_of a in
    let q = quality m in
    record_quality ~model q;
    (m, q)
  in
  let current = point d and spare = point d in
  let starts = lazy (rank_starts d spare) in
  let first = ref None in
  try
    fit_boundary ~stage ~key @@ fun ~attempt ~last:_ ->
    let starts = Lazy.force starts in
    load_grid_point d current starts.((attempt - 1) mod Array.length starts);
    let a = gauss_newton ~check:(fun () -> Deadline.poll ~stage) d current spare in
    record_attempt ~model a;
    finish (settle ~model ~key ~attempt ~first a)
  with Fault.Fault ({ kind = Fault.Fit_diverged; _ } as fault) when !first <> None ->
    (* every attempt diverged: degrade, don't fail — record the
       casualty and return the canonical first-attempt model *)
    Fault.record fault;
    finish (match !first with Some a -> a | None -> assert false)

let vths samples = Array.map (fun ((k : Component.knob), _) -> k.Component.vth) samples

let toxs samples =
  Array.map (fun ((k : Component.knob), _) -> Units.to_angstrom k.Component.tox) samples

(* --- leakage ------------------------------------------------------- *)

(* the coarse exponent grid the Gauss–Newton starts from *)
let alpha_vs = Minimize.linspace ~lo:(-40.0) ~hi:(-5.0) ~steps:11
let alpha_ts = Minimize.linspace ~lo:(-2.4) ~hi:(-0.3) ~steps:6

let fit_leak samples =
  if Array.length samples < 6 then invalid_arg "Fitter.fit_leak: too few samples";
  let key = samples_key samples in
  let leak_w (s : Component.summary) = s.Component.leak_w in
  check_samples ~stage:"fit.leak" ~key ~field:"leak_w" leak_w samples;
  (* columns 1 and 2 are the exponentials *)
  let n = Array.length samples in
  let fixed = Array.concat [ Array.make n 1.0; Array.make (2 * n) 0.0 ] in
  let d =
    problem
      ~ys:(Array.map (fun (_, s) -> leak_w s) samples)
      ~axes:
        [| axis ~col:1 ~grid:alpha_vs (vths samples); axis ~col:2 ~grid:alpha_ts (toxs samples) |]
      ~fixed
  in
  fit_separable ~model:"leak" ~key d
    ~quality:(fun m -> quality_leak m samples)
    ~model_of:(fun a ->
      {
        Model.a0 = a.coef.(0);
        a1 = a.coef.(1);
        alpha_v = a.alpha.(0);
        a2 = a.coef.(2);
        alpha_t = a.alpha.(1);
      })

(* --- delay --------------------------------------------------------- *)

(* For a fixed k3 the delay model is linear in (k0, k1, k2), so the fit
   is a projection over k3 alone, started from this grid. *)
let kappas = Minimize.linspace ~lo:0.2 ~hi:10.0 ~steps:49

let fit_delay samples =
  if Array.length samples < 5 then invalid_arg "Fitter.fit_delay: too few samples";
  let key = samples_key samples in
  let delay (s : Component.summary) = s.Component.delay in
  check_samples ~stage:"fit.delay" ~key ~field:"delay" delay samples;
  (* column 1 is the exponential; column 2 is ToxÅ *)
  let n = Array.length samples in
  let fixed = Array.concat [ Array.make n 1.0; Array.make n 0.0; toxs samples ] in
  let d =
    problem
      ~ys:(Array.map (fun (_, s) -> delay s) samples)
      ~axes:[| axis ~col:1 ~grid:kappas (vths samples) |]
      ~fixed
  in
  fit_separable ~model:"delay" ~key d
    ~quality:(fun m -> quality_delay m samples)
    ~model_of:(fun a ->
      { Model.k0 = a.coef.(0); k1 = a.coef.(1); kappa_v = a.alpha.(0); k2 = a.coef.(2) })

(* --- dynamic energy ------------------------------------------------ *)

let fit_energy samples =
  if Array.length samples < 2 then invalid_arg "Fitter.fit_energy: too few samples";
  let key = samples_key samples in
  let dyn_energy (s : Component.summary) = s.Component.dyn_energy in
  check_samples ~stage:"fit.energy" ~key ~field:"dyn_energy" dyn_energy samples;
  fit_boundary ~stage:"fit.energy" ~key @@ fun ~attempt:_ ~last:_ ->
  let rows = Array.map (fun x -> [| 1.0; x |]) (toxs samples) in
  let ys = Array.map (fun (_, s) -> dyn_energy s) samples in
  let coef = Linsolve.lstsq (Matrix.of_rows rows) ys in
  check_model_finite ~stage:"fit.energy" ~key (Array.to_list coef);
  let m = { Model.e0 = coef.(0); e1 = coef.(1) } in
  let predicted =
    Array.map
      (fun ((k : Component.knob), _) -> Model.eval_energy m ~tox:k.Component.tox)
      samples
  in
  let quality = quality_of ~actual:ys ~predicted in
  Metrics.observe "fit.energy.r2" quality.Model.r2;
  (m, quality)
