module Units = Nmcache_physics.Units
module Component = Nmcache_geometry.Component
module Matrix = Nmcache_numerics.Matrix
module Linsolve = Nmcache_numerics.Linsolve
module Lm = Nmcache_numerics.Lm
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
   transient arms recover under retry), then numeric failures escaping
   the solvers are mapped into typed faults instead of raw exceptions.
   Retryable faults (injected, fit_diverged) get up to the policy's
   attempt budget with deterministic backoff before escaping. *)
let fit_boundary ~stage ~key f =
  Retry.run ~stage ~key (fun ~attempt ~last ->
      Faultpoint.hit ~attempt ~point:stage ~key ();
      try f ~attempt ~last with
      | Linsolve.Singular ->
        Fault.error ~kind:Fault.Singular_system ~stage
          ("linear system singular for samples " ^ key)
      | Lm.Non_finite msg ->
        Fault.error ~kind:Fault.Non_finite ~stage
          (Printf.sprintf "%s (samples %s)" msg key))

let check_model_finite ~stage ~key params =
  if not (List.for_all Float.is_finite params) then
    Fault.error ~kind:Fault.Non_finite ~stage
      ("fitted parameters non-finite for samples " ^ key)

(* One metrics sample per LM *attempt*: iteration count and final
   residual, labelled by which compact model was being fitted.  Fits
   are coarse (milliseconds), so the registry update is noise.  With
   retries armed, [lm.fits] counts attempts, not fit_leak/fit_delay
   calls. *)
let record_attempt ~model (result : Lm.result) =
  Metrics.incr "lm.fits";
  if result.Lm.converged then Metrics.incr "lm.converged";
  Metrics.observe "lm.iterations" (float_of_int result.Lm.iterations);
  Metrics.observe ("lm." ^ model ^ ".iterations") (float_of_int result.Lm.iterations);
  Metrics.observe ("lm." ^ model ^ ".residual") result.Lm.residual

let record_quality ~model (quality : Model.quality) =
  Metrics.observe ("fit." ^ model ^ ".r2") quality.Model.r2;
  Metrics.observe ("fit." ^ model ^ ".rms_rel") quality.Model.rms_rel

(* multi-start seed per retry attempt: attempt 1 keeps the canonical
   seed, later attempts shift it so each retry actually explores new
   starts *)
let retry_seed attempt = Int64.add 0x5EEDL (Int64.of_int (attempt - 1))

(* Divergence policy at the retry boundary.  A fit still unconverged
   after its internal multi-starts raises Fit_diverged — the retry
   boundary re-fits with a shifted multi-start seed, and exhaustion is
   counted as exhaustion (never as a recovery).  The first attempt's
   result is stashed so the caller can degrade gracefully when every
   attempt diverges: the *canonical first-attempt* model is recorded
   as a Fit_diverged casualty and returned, making a run whose retries
   never converge byte-identical (models, fault details, CSVs) to a
   run with retries disabled.  The raised detail quotes the canonical
   result for the same reason. *)
let settle_lm ~model ~key ~attempt ~first (result : Lm.result) =
  if result.Lm.converged then result
  else begin
    if attempt = 1 then first := Some result;
    let canonical = match !first with Some r -> r | None -> result in
    Fault.error ~kind:Fault.Fit_diverged ~stage:("fit." ^ model)
      (Printf.sprintf "unconverged after %d iterations, residual %.3e (samples %s)"
         canonical.Lm.iterations canonical.Lm.residual key)
  end

let unpack samples field =
  Array.map
    (fun ((k : Component.knob), (s : Component.summary)) ->
      (k.Component.vth, Units.to_angstrom k.Component.tox, field s))
    samples

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

(* --- leakage ------------------------------------------------------- *)

let quality_leak m samples =
  let actual = Array.map (fun (_, (s : Component.summary)) -> s.Component.leak_w) samples in
  let predicted =
    Array.map
      (fun ((k : Component.knob), _) ->
        Model.eval_leak m ~vth:k.Component.vth ~tox:k.Component.tox)
      samples
  in
  quality_of ~actual ~predicted

(* Variable projection (Golub–Pereyra).  For fixed exponents
   (alpha_v, alpha_t) the model is linear in (A0, A1, A2), and the
   weighted QR solve gives those exactly, so the fit is a 2-parameter
   problem over the relative residuals r left by that solve.  Damped
   Gauss–Newton runs on the exponents with Kaufman's Jacobian: column k
   is the part of ∂P/∂alpha_k (relative) that the design cannot absorb,
   which makes Jᵀr the exact gradient. *)
type leak_data = {
  vths : float array;
  toxs : float array;  (* Å *)
  ys : float array;
  w : float array;     (* relative-error weights *)
}

type projection = {
  alpha_v : float;
  alpha_t : float;
  design : Matrix.t;
  coef : float array;  (* A0, A1, A2 *)
  r : float array;     (* relative residuals *)
  cost : float;        (* ‖r‖₂ *)
}

let dot u v =
  let acc = ref 0.0 in
  for i = 0 to Array.length u - 1 do
    acc := !acc +. (u.(i) *. v.(i))
  done;
  !acc

(* relative residuals (Φc − g)/|y| of the weighted solve Φc ≈ g *)
let project d design g =
  let coef = Linsolve.lstsq_weighted design g ~weights:d.w in
  let r = Matrix.mul_vec design coef in
  for i = 0 to Array.length r - 1 do
    r.(i) <- (r.(i) -. g.(i)) /. Float.max (Float.abs d.ys.(i)) 1e-30
  done;
  (coef, r)

let leak_projection d ~alpha_v ~alpha_t =
  let n = Array.length d.ys in
  let design = Matrix.create ~rows:n ~cols:3 in
  for i = 0 to n - 1 do
    Matrix.set design i 0 1.0;
    Matrix.set design i 1 (Float.exp (alpha_v *. d.vths.(i)));
    Matrix.set design i 2 (Float.exp (alpha_t *. d.toxs.(i)))
  done;
  let coef, r = project d design d.ys in
  { alpha_v; alpha_t; design; coef; r; cost = Float.sqrt (dot r r) }

(* the coarse exponent grid the Gauss–Newton starts from *)
let alpha_vs = Minimize.linspace ~lo:(-40.0) ~hi:(-5.0) ~steps:11
let alpha_ts = Minimize.linspace ~lo:(-2.4) ~hi:(-0.3) ~steps:6

let vp_max_iter = 100
let vp_step_tol = 1e-10
let vp_grad_tol = 1e-10
let vp_max_damping_tries = 30

let leak_gauss_newton ~check d start =
  let kaufman (p : projection) =
    let column a knob alpha =
      let g = Array.make (Array.length knob) 0.0 in
      for i = 0 to Array.length knob - 1 do
        g.(i) <- a *. knob.(i) *. Float.exp (alpha *. knob.(i))
      done;
      let _, r = project d p.design g in
      for i = 0 to Array.length r - 1 do
        r.(i) <- -.r.(i)
      done;
      r
    in
    (column p.coef.(1) d.vths p.alpha_v, column p.coef.(2) d.toxs p.alpha_t)
  in
  let rec iterate (p : projection) lambda it =
    check ();
    let jv, jt = kaufman p in
    let vv = dot jv jv and vt = dot jv jt and tt = dot jt jt in
    let gv = dot jv p.r and gt = dot jt p.r in
    (* stationary: r is orthogonal to both Jacobian columns *)
    let stationary =
      Float.abs gv <= vp_grad_tol *. Float.sqrt vv *. p.cost
      && Float.abs gt <= vp_grad_tol *. Float.sqrt tt *. p.cost
    in
    if stationary then (p, it, true)
    else if it >= vp_max_iter then (p, it, false)
    else
      (* Marquardt damping on the 2×2 normal equations, raised until the
         step lowers the cost *)
      let rec damped lambda tries =
        if tries >= vp_max_damping_tries then None
        else
          let vv' = vv *. (1.0 +. lambda) and tt' = tt *. (1.0 +. lambda) in
          let det = (vv' *. tt') -. (vt *. vt) in
          let dv = ((-.gv *. tt') +. (gt *. vt)) /. det
          and dt = ((-.gt *. vv') +. (gv *. vt)) /. det in
          let trial =
            if det > 0.0 && Float.is_finite dv && Float.is_finite dt then
              try
                Some
                  (leak_projection d ~alpha_v:(p.alpha_v +. dv) ~alpha_t:(p.alpha_t +. dt))
              with Linsolve.Singular -> None
            else None
          in
          match trial with
          | Some q when q.cost < p.cost -> Some (q, lambda, Float.hypot dv dt)
          | _ -> damped (Float.max (lambda *. 10.0) 1e-12) (tries + 1)
      in
      match damped lambda 0 with
      | None ->
        (* no damping lowers the cost: a minimum to rounding *)
        (p, it + 1, true)
      | Some (q, lambda, step) ->
        let scale = Float.hypot q.alpha_v q.alpha_t in
        if step <= vp_step_tol *. (scale +. vp_step_tol) then (q, it + 1, true)
        else iterate q (lambda /. 10.0) (it + 1)
  in
  iterate start 0.0 0

let fit_leak samples =
  if Array.length samples < 6 then invalid_arg "Fitter.fit_leak: too few samples";
  let key = samples_key samples in
  let ys = Array.map (fun (_, (s : Component.summary)) -> s.Component.leak_w) samples in
  let d =
    {
      vths = Array.map (fun ((k : Component.knob), _) -> k.Component.vth) samples;
      toxs = Array.map (fun ((k : Component.knob), _) -> Units.to_angstrom k.Component.tox) samples;
      ys;
      w = weights ys;
    }
  in
  (* the grid's projections, best first, depend only on the samples —
     computed once and shared across retry attempts, which start from
     successive grid points (lazy memoises exceptions too, and a grid
     that is singular everywhere is not retryable anyway) *)
  let starts =
    lazy
      (let projections =
         Array.to_list alpha_vs
         |> List.concat_map (fun alpha_v ->
                Array.to_list alpha_ts
                |> List.filter_map (fun alpha_t ->
                       try Some (leak_projection d ~alpha_v ~alpha_t)
                       with Linsolve.Singular -> None))
       in
       if projections = [] then raise Linsolve.Singular;
       Array.of_list
         (List.stable_sort (fun p q -> Float.compare p.cost q.cost) projections))
  in
  let first = ref None in
  let finish (result : Lm.result) =
    let theta = result.Lm.params in
    check_model_finite ~stage:"fit.leak" ~key (Array.to_list theta);
    let m =
      {
        Model.a0 = theta.(0);
        a1 = theta.(1);
        alpha_v = theta.(2);
        a2 = theta.(3);
        alpha_t = theta.(4);
      }
    in
    let quality = quality_leak m samples in
    record_quality ~model:"leak" quality;
    (m, quality)
  in
  try
    fit_boundary ~stage:"fit.leak" ~key @@ fun ~attempt ~last:_ ->
    let starts = Lazy.force starts in
    let p, iterations, converged =
      leak_gauss_newton
        ~check:(fun () -> Deadline.poll ~stage:"fit.leak")
        d
        starts.((attempt - 1) mod Array.length starts)
    in
    let result =
      {
        Lm.params = [| p.coef.(0); p.coef.(1); p.alpha_v; p.coef.(2); p.alpha_t |];
        residual = p.cost;
        iterations;
        converged;
      }
    in
    record_attempt ~model:"leak" result;
    finish (settle_lm ~model:"leak" ~key ~attempt ~first result)
  with Fault.Fault ({ kind = Fault.Fit_diverged; _ } as fault) when !first <> None ->
    (* every attempt diverged: degrade, don't fail — record the
       casualty and return the canonical first-attempt model *)
    Fault.record fault;
    finish (match !first with Some r -> r | None -> assert false)

(* --- delay --------------------------------------------------------- *)

let delay_linear_fit pts ~kappa_v =
  let rows = Array.map (fun (v, x, _) -> [| 1.0; Float.exp (kappa_v *. v); x |]) pts in
  let ys = Array.map (fun (_, _, y) -> y) pts in
  let a = Matrix.of_rows rows in
  let coef = Linsolve.lstsq_weighted a ys ~weights:(weights ys) in
  let predict (v, x, _) = coef.(0) +. (coef.(1) *. Float.exp (kappa_v *. v)) +. (coef.(2) *. x) in
  let rel_err =
    Array.fold_left
      (fun acc ((_, _, y) as p) ->
        let e = (predict p -. y) /. Float.max (Float.abs y) 1e-30 in
        acc +. (e *. e))
      0.0 pts
  in
  (coef, rel_err)

let delay_eval theta (xi : float array) =
  theta.(0) +. (theta.(1) *. Float.exp (theta.(2) *. xi.(0))) +. (theta.(3) *. xi.(1))

let fit_delay samples =
  if Array.length samples < 5 then invalid_arg "Fitter.fit_delay: too few samples";
  let key = samples_key samples in
  let pts = unpack samples (fun s -> s.Component.delay) in
  let profile =
    lazy
      (let best = ref None in
       let kappas = Minimize.linspace ~lo:0.2 ~hi:10.0 ~steps:49 in
       Array.iter
         (fun kappa_v ->
           let coef, err = delay_linear_fit pts ~kappa_v in
           match !best with
           | Some (_, _, e) when e <= err -> ()
           | _ -> best := Some (coef, kappa_v, err))
         kappas;
       match !best with Some b -> b | None -> assert false)
  in
  let first = ref None in
  let finish (result : Lm.result) =
    let theta = result.Lm.params in
    check_model_finite ~stage:"fit.delay" ~key (Array.to_list theta);
    let m = { Model.k0 = theta.(0); k1 = theta.(1); kappa_v = theta.(2); k2 = theta.(3) } in
    let actual = Array.map (fun (_, _, y) -> y) pts in
    let predicted =
      Array.map
        (fun ((k : Component.knob), _) ->
          Model.eval_delay m ~vth:k.Component.vth ~tox:k.Component.tox)
        samples
    in
    let quality = quality_of ~actual ~predicted in
    record_quality ~model:"delay" quality;
    (m, quality)
  in
  try
    fit_boundary ~stage:"fit.delay" ~key @@ fun ~attempt ~last:_ ->
    let coef, kappa_v, _ = Lazy.force profile in
    let xs = Array.map (fun (v, x, y) -> [| v; x; y |]) pts in
    let ys_rel = Array.map (fun _ -> 1.0) pts in
    let f theta xi = delay_eval theta xi /. Float.max (Float.abs xi.(2)) 1e-30 in
    let init = [| coef.(0); coef.(1); kappa_v; coef.(2) |] in
    let result =
      Lm.fit_robust
        ~check:(fun () -> Deadline.poll ~stage:"fit.delay")
        ~seed:(retry_seed attempt) ~f ~xs ~ys:ys_rel ~init ()
    in
    record_attempt ~model:"delay" result;
    finish (settle_lm ~model:"delay" ~key ~attempt ~first result)
  with Fault.Fault ({ kind = Fault.Fit_diverged; _ } as fault) when !first <> None ->
    Fault.record fault;
    finish (match !first with Some r -> r | None -> assert false)

let quality_delay m samples =
  let actual = Array.map (fun (_, (s : Component.summary)) -> s.Component.delay) samples in
  let predicted =
    Array.map
      (fun ((k : Component.knob), _) ->
        Model.eval_delay m ~vth:k.Component.vth ~tox:k.Component.tox)
      samples
  in
  quality_of ~actual ~predicted

(* --- dynamic energy ------------------------------------------------ *)

let fit_energy samples =
  if Array.length samples < 2 then invalid_arg "Fitter.fit_energy: too few samples";
  let key = samples_key samples in
  fit_boundary ~stage:"fit.energy" ~key @@ fun ~attempt:_ ~last:_ ->
  let pts = unpack samples (fun s -> s.Component.dyn_energy) in
  let rows = Array.map (fun (_, x, _) -> [| 1.0; x |]) pts in
  let ys = Array.map (fun (_, _, y) -> y) pts in
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
