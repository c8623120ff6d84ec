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

let pin_grid () =
  let module Minimize = Nmcache_numerics.Minimize in
  ( Minimize.linspace ~lo:tech.Tech.vth_min ~hi:tech.Tech.vth_max ~steps:6,
    Minimize.linspace ~lo:tech.Tech.tox_min ~hi:tech.Tech.tox_max ~steps:4 )

let five_caches = [ (4, 1, 32); (16, 4, 64); (128, 2, 32); (1024, 8, 64); (8192, 8, 64) ]

let circuit_of (size_kb, assoc, block_bytes) =
  Cache_model.make tech (Config.make ~size_bytes:(size_kb * 1024) ~assoc ~block_bytes ())

(* Every fit of the given model converges on its first attempt: one
   attempt per fit, converged, and no retry. *)
let converges_first_attempt fit () =
  let module Metrics = Nmcache_engine.Metrics in
  let vths, toxs = pin_grid () in
  List.iter
    (fun ((size_kb, assoc, block_bytes) as cache) ->
      let circuit = circuit_of cache in
      List.iter
        (fun kind ->
          let samples = Cache_model.characterize circuit kind ~vths ~toxs in
          let c = Metrics.counter_value in
          let fits0 = c "lm.fits" and conv0 = c "lm.converged" and retry0 = c "retry.attempts" in
          fit samples;
          Alcotest.(check (triple int int int))
            (Printf.sprintf "%dKB/%d-way/%dB %s: attempts, converged, retries" size_kb assoc
               block_bytes (Component.kind_name kind))
            (1, 1, 0)
            (c "lm.fits" - fits0, c "lm.converged" - conv0, c "retry.attempts" - retry0))
        Component.all_kinds)
    five_caches

(* The five caches above plus the quick context's L1 and L2: 28
   component sample sets, the known answers below were computed on. *)
let pin_samples () =
  let ctx = Core.Context.quick () in
  let vths, toxs = pin_grid () in
  List.concat_map
    (fun circuit ->
      List.map (fun kind -> Cache_model.characterize circuit kind ~vths ~toxs) Component.all_kinds)
    (List.map circuit_of five_caches
    @ [
        Cache_model.make tech (Core.Context.l1_config ctx ());
        Cache_model.make tech (Core.Context.l2_config ctx ());
      ])

(* MD5 of the hex-float leakage models of [pin_samples], as fitted
   before the two fits shared one variable-projection implementation.
   The leakage fit's arithmetic is unchanged, so this holds bit for
   bit. *)
let leak_known_md5 = "929bb9d0eea4ddbe0e29660c8dd60529"

let test_leak_models_pinned () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun samples ->
      let (m : Model.leak), _ = Fitter.fit_leak samples in
      Buffer.add_string buf
        (Printf.sprintf "%h %h %h %h %h\n" m.Model.a0 m.Model.a1 m.Model.alpha_v m.Model.a2
           m.Model.alpha_t))
    (pin_samples ());
  Alcotest.(check string) "leak models" leak_known_md5
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* (k0, k1, k3, k2, rms_rel) of [pin_samples]' delay models as the
   four-parameter Levenberg–Marquardt refinement fitted them. *)
let delay_known =
  [
    ((-0x1.ff44e322653b9p-35), (0x1.53098ff0afe03p-37), (0x1.0b3e91a5198d3p+2), (0x1.00b1789e680f9p-37), (0x1.45617c23a1147p-5));
    ((-0x1.2d2ca73311fefp-34), (0x1.07f0557a1b9b5p-36), (0x1.0b888459efdeap+2), (0x1.318c4fa23bc22p-37), (0x1.1e9c35dc051fap-5));
    ((-0x1.c43b35d9dc497p-40), (0x1.8268dd50a0907p-39), (0x1.c2d332c2a429dp+1), (0x1.488b166da451ap-40), (0x1.0e5e80fb410f7p-6));
    ((-0x1.625119e70a63bp-36), (0x1.fdd806cbd946cp-38), (0x1.feadd0d9216ecp+1), (0x1.fdfd2c5ad5ff7p-39), (0x1.a47d1b4921bdap-6));
    ((-0x1.ffe88074bec6ep-35), (0x1.52e5a1f135a27p-37), (0x1.0b44a9318407p+2), (0x1.fe6a8fac8f958p-38), (0x1.47e4c431470f4p-5));
    ((-0x1.29fd0fccaa54cp-34), (0x1.04f1289bbb8d4p-36), (0x1.0b888459caa2p+2), (0x1.2e3eaa1d5556cp-37), (0x1.1ec25fda4831ap-5));
    ((-0x1.4dd8cb817d847p-37), (0x1.95bf7c3ed598fp-37), (0x1.2cf75bccd0156p+1), (0x1.2be2e0267b0d7p-39), (0x1.97a02b86e9c47p-7));
    ((-0x1.b3e2874e67374p-36), (0x1.bce7da0bfc099p-37), (0x1.b9b7fe1e9abe7p+1), (0x1.460d766ba3832p-38), (0x1.30c2bb2bae909p-6));
    ((-0x1.e944f142e9592p-35), (0x1.5566c046759e7p-37), (0x1.0af5e462a0cfdp+2), (0x1.28433d5893432p-37), (0x1.0d328439db5ap-5));
    ((-0x1.458753ad92128p-34), (0x1.194cc5bf4c3p-36), (0x1.0b88845c9cce4p+2), (0x1.48df96d2e48b6p-37), (0x1.214c8f2422db9p-5));
    ((-0x1.463a059153349p-37), (0x1.b3e2a6f37536cp-36), (0x1.705581d09fd13p+1), (0x1.e7e67e9edfbb2p-38), (0x1.5274cd5314fafp-7));
    ((-0x1.cfd2da0cb33f7p-36), (0x1.de318f71bb66bp-36), (0x1.a2ce229e824f2p+1), (0x1.4cdd06098b6d3p-37), (0x1.cae3c30f7e199p-7));
    ((-0x1.67005ed9b1b97p-33), (0x1.dc1398ded6335p-36), (0x1.0aaa2ded95a78p+2), (0x1.c3b91115adbb2p-36), (0x1.08a58a7d75ac1p-5));
    ((-0x1.855357ec49067p-33), (0x1.5f3f526e470bbp-35), (0x1.0b888458a6565p+2), (0x1.8e7a45d38d50bp-36), (0x1.192b50b220394p-5));
    ((-0x1.0cf8f07911677p-35), (0x1.1fbe03fe6b5adp-34), (0x1.5a8dc7d7a9a2fp+1), (0x1.1e7bc7a4509a6p-36), (0x1.5c3eda8f29b39p-7));
    ((-0x1.9090ce7fccb45p-35), (0x1.21550d47468edp-34), (0x1.7864f8e28a507p+1), (0x1.4b15a47ce61a3p-36), (0x1.999c61225886ep-7));
    ((-0x1.45e7c9c989e6fp-31), (0x1.a87c8cb5d63eep-34), (0x1.0a88fbad554b4p+2), (0x1.a1f20a74c653dp-34), (0x1.05c06aa9c270dp-5));
    ((-0x1.3c9257f95e55ap-31), (0x1.224f27a50d8f2p-33), (0x1.0b888458e50f7p+2), (0x1.45a6dce60e9aap-34), (0x1.162db7ac091e4p-5));
    ((-0x1.337e588b29e45p-34), (0x1.705ac4030b6bep-33), (0x1.65e256b067955p+1), (0x1.8610e44a763ep-35), (0x1.33525079ff532p-7));
    ((-0x1.76605fcec186ap-34), (0x1.71599af3a0803p-33), (0x1.715d84b469c6fp+1), (0x1.9c7a8e701657bp-35), (0x1.4ce1ffba18956p-7));
    ((-0x1.ffe88074bec6ep-35), (0x1.52e5a1f135a27p-37), (0x1.0b44a9318407p+2), (0x1.fe6a8fac8f958p-38), (0x1.47e4c431470f4p-5));
    ((-0x1.29fd0fccaa54cp-34), (0x1.04f1289bbb8d4p-36), (0x1.0b888459caa2p+2), (0x1.2e3eaa1d5556cp-37), (0x1.1ec25fda4831ap-5));
    ((-0x1.4dd8cb817d847p-37), (0x1.95bf7c3ed598fp-37), (0x1.2cf75bccd0156p+1), (0x1.2be2e0267b0d7p-39), (0x1.97a02b86e9c47p-7));
    ((-0x1.b3e2874e67374p-36), (0x1.bce7da0bfc099p-37), (0x1.b9b7fe1e9abe7p+1), (0x1.460d766ba3832p-38), (0x1.30c2bb2bae909p-6));
    ((-0x1.67005ed9b1b97p-33), (0x1.dc1398ded6335p-36), (0x1.0aaa2ded95a78p+2), (0x1.c3b91115adbb2p-36), (0x1.08a58a7d75ac1p-5));
    ((-0x1.855357ec49067p-33), (0x1.5f3f526e470bbp-35), (0x1.0b888458a6565p+2), (0x1.8e7a45d38d50bp-36), (0x1.192b50b220394p-5));
    ((-0x1.0cf8f07911677p-35), (0x1.1fbe03fe6b5adp-34), (0x1.5a8dc7d7a9a2fp+1), (0x1.1e7bc7a4509a6p-36), (0x1.5c3eda8f29b39p-7));
    ((-0x1.9090ce7fccb45p-35), (0x1.21550d47468edp-34), (0x1.7864f8e28a507p+1), (0x1.4b15a47ce61a3p-36), (0x1.999c61225886ep-7));
  ]

(* Projection over k3 reaches the same minimum as the LM refinement
   did: every parameter within 1e-5 relative, and no rms_rel larger
   than the LM fit's beyond rounding (a few ulps, where both sit at the
   same minimum). *)
let test_delay_models_match_lm () =
  List.iteri
    (fun i (samples, (k0, k1, kappa_v, k2, rms_rel)) ->
      let (m : Model.delay), q = Fitter.fit_delay samples in
      List.iter
        (fun (name, lm, vp) ->
          let rel = Float.abs (vp -. lm) /. Float.abs lm in
          Alcotest.(check bool)
            (Printf.sprintf "fit %d %s: %h vs LM %h (rel %.1e)" i name vp lm rel)
            true (rel <= 1e-5))
        [
          ("k0", k0, m.Model.k0);
          ("k1", k1, m.Model.k1);
          ("k3", kappa_v, m.Model.kappa_v);
          ("k2", k2, m.Model.k2);
        ];
      Alcotest.(check bool)
        (Printf.sprintf "fit %d rms_rel %h vs LM %h" i q.Model.rms_rel rms_rel)
        true
        (q.Model.rms_rel <= rms_rel *. (1.0 +. 1e-14)))
    (List.combine (pin_samples ()) delay_known)

(* A warm fit of a real 35-sample component allocates at most 20 k
   minor words: designs, factorisations and Jacobian columns live in
   per-fit workspaces. *)
let test_fit_allocation () =
  let vths, toxs = pin_grid () in
  List.iter
    (fun kind ->
      let samples = Cache_model.characterize circuit kind ~vths ~toxs in
      List.iter
        (fun (name, fit) ->
          fit samples;
          let w0 = Gc.minor_words () in
          fit samples;
          let words = Gc.minor_words () -. w0 in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: %.0f words <= 20000" (Component.kind_name kind) name words)
            true (words <= 20_000.0))
        [
          ("fit_leak", fun s -> ignore (Fitter.fit_leak s));
          ("fit_delay", fun s -> ignore (Fitter.fit_delay s));
        ])
    Component.all_kinds

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
      (converges_first_attempt (fun s -> ignore (Fitter.fit_leak s)));
    Alcotest.test_case "delay fit converges on attempt 1" `Quick
      (converges_first_attempt (fun s -> ignore (Fitter.fit_delay s)));
    Alcotest.test_case "leak models pinned bit for bit" `Quick test_leak_models_pinned;
    Alcotest.test_case "delay models match the LM fits" `Quick test_delay_models_match_lm;
    Alcotest.test_case "alloc gate: warm fit <= 20k words" `Quick
      test_fit_allocation;
  ]
