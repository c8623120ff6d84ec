(* Tests for the compact-model fitting layer. *)

module Units = Nmcache_physics.Units
module Tech = Nmcache_device.Tech
module Config = Nmcache_geometry.Config
module Component = Nmcache_geometry.Component
module Cache_model = Nmcache_geometry.Cache_model
module Model = Nmcache_fit.Model
module Fitter = Nmcache_fit.Fitter
module Fitted_cache = Nmcache_fit.Fitted_cache

let tech = Tech.bptm65
let a = Units.angstrom
let cfg = Config.make ~size_bytes:(16 * 1024) ~assoc:4 ~block_bytes:64 ()
let circuit = Cache_model.make tech cfg
let fitted = lazy (Fitted_cache.characterize_and_fit circuit)

let test_model_eval_formulas () =
  let leak = { Model.a0 = 1.0; a1 = 2.0; alpha_v = -10.0; a2 = 3.0; alpha_t = -1.0 } in
  let v = Model.eval_leak leak ~vth:0.3 ~tox:(a 12.0) in
  let expected = 1.0 +. (2.0 *. Float.exp (-3.0)) +. (3.0 *. Float.exp (-12.0)) in
  Alcotest.(check bool) "leak formula" true (Float.abs (v -. expected) < 1e-12);
  let delay = { Model.k0 = 1e-12; k1 = 2e-12; kappa_v = 3.0; k2 = 1e-13 } in
  let d = Model.eval_delay delay ~vth:0.4 ~tox:(a 11.0) in
  let expected_d = 1e-12 +. (2e-12 *. Float.exp 1.2) +. (1e-13 *. 11.0) in
  Alcotest.(check bool) "delay formula" true (Float.abs (d -. expected_d) < 1e-24);
  let e = { Model.e0 = 5e-12; e1 = 1e-13 } in
  Alcotest.(check bool) "energy formula" true
    (Float.abs (Model.eval_energy e ~tox:(a 10.0) -. 6e-12) < 1e-24)

let test_fit_synthetic_leak () =
  (* generate samples from a known model and recover it *)
  let truth = { Model.a0 = 1e-4; a1 = 0.5; alpha_v = -25.0; a2 = 2e4; alpha_t = -1.9 } in
  let samples =
    Array.of_list
      (List.concat_map
         (fun vth ->
           List.map
             (fun tox_a ->
               let k = Component.knob ~vth ~tox:(a tox_a) in
               let s =
                 {
                   Component.delay = 1e-10;
                   leak_w = Model.eval_leak truth ~vth ~tox:(a tox_a);
                   dyn_energy = 1e-12;
                   area = 1e-9;
                 }
               in
               (k, s))
             [ 10.0; 11.0; 12.0; 13.0; 14.0 ])
         [ 0.2; 0.275; 0.35; 0.425; 0.5 ])
  in
  let m, q = Fitter.fit_leak samples in
  Alcotest.(check bool) (Printf.sprintf "R2 ~ 1 (got %f)" q.Model.r2) true (q.Model.r2 > 0.9999);
  Alcotest.(check bool) "max rel err < 1%" true (q.Model.max_rel < 0.01);
  (* exponents recovered approximately *)
  Alcotest.(check bool)
    (Printf.sprintf "alpha_v ~ -25 (got %.2f)" m.Model.alpha_v)
    true
    (Float.abs (m.Model.alpha_v +. 25.0) < 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "alpha_t ~ -1.9 (got %.2f)" m.Model.alpha_t)
    true
    (Float.abs (m.Model.alpha_t +. 1.9) < 0.2)

let test_fit_synthetic_delay () =
  let truth = { Model.k0 = 2e-11; k1 = 5e-12; kappa_v = 4.0; k2 = 6e-12 } in
  let samples =
    Array.of_list
      (List.concat_map
         (fun vth ->
           List.map
             (fun tox_a ->
               let k = Component.knob ~vth ~tox:(a tox_a) in
               ( k,
                 {
                   Component.delay = Model.eval_delay truth ~vth ~tox:(a tox_a);
                   leak_w = 1e-3;
                   dyn_energy = 1e-12;
                   area = 1e-9;
                 } ))
             [ 10.0; 12.0; 14.0 ])
         [ 0.2; 0.3; 0.4; 0.5 ])
  in
  let m, q = Fitter.fit_delay samples in
  Alcotest.(check bool) "R2 ~ 1" true (q.Model.r2 > 0.9999);
  Alcotest.(check bool)
    (Printf.sprintf "kappa ~ 4 (got %.2f)" m.Model.kappa_v)
    true
    (Float.abs (m.Model.kappa_v -. 4.0) < 0.3)

let test_fit_validation () =
  Alcotest.(check bool) "too few samples" true
    (try
       ignore (Fitter.fit_leak [||]);
       false
     with Invalid_argument _ -> true)

let test_real_cache_fit_quality () =
  let f = Lazy.force fitted in
  List.iter
    (fun (cm : Fitted_cache.component_model) ->
      let name = Component.kind_name cm.Fitted_cache.kind in
      Alcotest.(check bool)
        (Printf.sprintf "%s leak R2 %.4f > 0.93" name cm.Fitted_cache.leak_quality.Model.r2)
        true
        (cm.Fitted_cache.leak_quality.Model.r2 > 0.93);
      Alcotest.(check bool)
        (Printf.sprintf "%s delay R2 %.4f > 0.93" name cm.Fitted_cache.delay_quality.Model.r2)
        true
        (cm.Fitted_cache.delay_quality.Model.r2 > 0.93))
    (Fitted_cache.components f)

let test_fitted_eval_close_to_exact_off_grid () =
  let f = Lazy.force fitted in
  (* off-grid knobs (not on the 7x5 training lattice) *)
  let knobs =
    [
      Component.uniform (Component.knob ~vth:0.33 ~tox:(a 11.3));
      Component.uniform (Component.knob ~vth:0.27 ~tox:(a 13.1));
      Component.split
        ~cell:(Component.knob ~vth:0.47 ~tox:(a 13.7))
        ~periphery:(Component.knob ~vth:0.21 ~tox:(a 10.4));
    ]
  in
  List.iter
    (fun assignment ->
      let est = Fitted_cache.eval f assignment in
      let exact = Fitted_cache.exact f assignment in
      let leak_err =
        Float.abs (est.Fitted_cache.leak_w -. exact.Cache_model.leak_w)
        /. exact.Cache_model.leak_w
      in
      let delay_err =
        Float.abs (est.Fitted_cache.access_time -. exact.Cache_model.access_time)
        /. exact.Cache_model.access_time
      in
      Alcotest.(check bool) (Printf.sprintf "leak err %.1f%% < 25%%" (100. *. leak_err)) true
        (leak_err < 0.25);
      Alcotest.(check bool)
        (Printf.sprintf "delay err %.1f%% < 12%%" (100. *. delay_err))
        true (delay_err < 0.12))
    knobs

let test_fitted_models_monotone () =
  let f = Lazy.force fitted in
  (* fitted leakage must preserve the physical monotonicity on the grid *)
  List.iter
    (fun kind ->
      let leak vth tox_a = Fitted_cache.leak_of f kind (Component.knob ~vth ~tox:(a tox_a)) in
      Alcotest.(check bool) "dec in vth" true (leak 0.45 12.0 < leak 0.25 12.0);
      Alcotest.(check bool) "dec in tox" true (leak 0.3 13.5 < leak 0.3 10.5);
      let delay vth tox_a = Fitted_cache.delay_of f kind (Component.knob ~vth ~tox:(a tox_a)) in
      Alcotest.(check bool) "delay inc in vth" true (delay 0.45 12.0 > delay 0.25 12.0);
      Alcotest.(check bool) "delay inc in tox" true (delay 0.3 13.5 > delay 0.3 10.5))
    Component.all_kinds

let test_estimate_is_component_sum () =
  let f = Lazy.force fitted in
  let k = Component.knob ~vth:0.31 ~tox:(a 12.2) in
  let est = Fitted_cache.eval f (Component.uniform k) in
  let sum field =
    List.fold_left (fun acc kind -> acc +. field kind) 0.0 Component.all_kinds
  in
  let leak_sum = sum (fun kind -> Fitted_cache.leak_of f kind k) in
  Alcotest.(check bool) "leak sum" true
    (Float.abs (est.Fitted_cache.leak_w -. leak_sum) < 1e-12 *. leak_sum)

(* Every leakage fit converges on its first attempt: one attempt per
   fit, converged, and no retry. *)
let test_leak_converges_first_attempt () =
  let module Metrics = Nmcache_engine.Metrics in
  let module Minimize = Nmcache_numerics.Minimize in
  let vths = Minimize.linspace ~lo:tech.Tech.vth_min ~hi:tech.Tech.vth_max ~steps:6 in
  let toxs = Minimize.linspace ~lo:tech.Tech.tox_min ~hi:tech.Tech.tox_max ~steps:4 in
  List.iter
    (fun (size_kb, assoc, block_bytes) ->
      let circuit =
        Cache_model.make tech (Config.make ~size_bytes:(size_kb * 1024) ~assoc ~block_bytes ())
      in
      List.iter
        (fun kind ->
          let samples = Cache_model.characterize circuit kind ~vths ~toxs in
          let c = Metrics.counter_value in
          let fits0 = c "lm.fits" and conv0 = c "lm.converged" and retry0 = c "retry.attempts" in
          ignore (Fitter.fit_leak samples);
          Alcotest.(check (triple int int int))
            (Printf.sprintf "%dKB/%d-way/%dB %s: attempts, converged, retries" size_kb assoc
               block_bytes (Component.kind_name kind))
            (1, 1, 0)
            (c "lm.fits" - fits0, c "lm.converged" - conv0, c "retry.attempts" - retry0))
        Component.all_kinds)
    [ (4, 1, 32); (16, 4, 64); (128, 2, 32); (1024, 8, 64); (8192, 8, 64) ]

let test_worst_quality () =
  let f = Lazy.force fitted in
  let q = Fitted_cache.worst_quality f in
  Alcotest.(check bool) "worst R2 still high" true (q.Model.r2 > 0.9)

let suite =
  [
    Alcotest.test_case "model formulas" `Quick test_model_eval_formulas;
    Alcotest.test_case "fit synthetic leakage" `Quick test_fit_synthetic_leak;
    Alcotest.test_case "fit synthetic delay" `Quick test_fit_synthetic_delay;
    Alcotest.test_case "fit validation" `Quick test_fit_validation;
    Alcotest.test_case "real cache fit quality" `Quick test_real_cache_fit_quality;
    Alcotest.test_case "off-grid accuracy" `Quick test_fitted_eval_close_to_exact_off_grid;
    Alcotest.test_case "fitted models monotone" `Quick test_fitted_models_monotone;
    Alcotest.test_case "estimate is component sum" `Quick test_estimate_is_component_sum;
    Alcotest.test_case "worst quality" `Quick test_worst_quality;
    Alcotest.test_case "leak fit converges on attempt 1" `Quick
      test_leak_converges_first_attempt;
  ]
