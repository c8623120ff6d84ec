module Rng = Nmcache_numerics.Rng
module Constants = Nmcache_physics.Constants

let pelgrom_avt = 2.5e-9 (* 2.5 mV.um in V.m *)

let sigma_vth tech ~w ~tox =
  if w <= 0.0 then invalid_arg "Variation.sigma_vth: w <= 0";
  let l = Tech.l_drawn tech ~tox in
  pelgrom_avt /. Float.sqrt (w *. l)

let nvt (tech_n_swing : float) temp_k =
  tech_n_swing *. Constants.thermal_voltage ~temp_k

let mean_inflation ~sigma ~n_swing ~temp_k =
  let s = nvt n_swing temp_k in
  Float.exp (sigma *. sigma /. (2.0 *. s *. s))

let[@inline] gaussian rng =
  (* Box-Muller; one value per call keeps the stream simple.  Each
     uniform is [Rng.float rng], drawn without its boxed float return,
     and inlining keeps [mc_inflation]'s samples unboxed too *)
  let u1 = Float.max 1e-300 (Float.of_int (Rng.bits53 rng) *. 0x1.0p-53) in
  let u2 = Float.of_int (Rng.bits53 rng) *. 0x1.0p-53 in
  Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2)

let mc_inflation ~rng ~sigma ~n_swing ~temp_k ~samples =
  if samples < 1 then invalid_arg "Variation.mc_inflation: samples < 1";
  let s = nvt n_swing temp_k in
  let acc = ref 0.0 in
  for _ = 1 to samples do
    let dv = sigma *. gaussian rng in
    acc := !acc +. Float.exp (-.dv /. s)
  done;
  !acc /. float_of_int samples

(* Acklam's rational approximation to the standard-normal quantile;
   |error| < 1.15e-9 over the open unit interval. *)
let normal_quantile p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Variation: percentile out of range";
  let a =
    [| -39.69683028665376; 220.9460984245205; -275.9285104469687; 138.3577518672690;
       -30.66479806614716; 2.506628277459239 |]
  in
  let b =
    [| -54.47609879822406; 161.5858368580409; -155.6989798598866; 66.80131188771972;
       -13.28068155288572 |]
  in
  let c =
    [| -0.007784894002430293; -0.3223964580411365; -2.400758277161838;
       -2.549732539343734; 4.374664141464968; 2.938163982698783 |]
  in
  let d =
    [| 0.007784695709041462; 0.3224671290700398; 2.445134137142996; 3.754408661907416 |]
  in
  let p_low = 0.02425 in
  if p < p_low then begin
    let q = Float.sqrt (-2.0 *. Float.log p) in
    (((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q
    +. c.(5)
    |> fun num ->
    num /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
  end
  else if p <= 1.0 -. p_low then begin
    let q = p -. 0.5 in
    let r = q *. q in
    (((((a.(0) *. r) +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r
    +. a.(5)
    |> fun num ->
    num *. q
    /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1.0)
  end
  else begin
    let q = Float.sqrt (-2.0 *. Float.log (1.0 -. p)) in
    -.((((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q
       +. c.(5))
    /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
  end

let sigma_percentile_leakage ~sigma ~n_swing ~temp_k ~percentile =
  let z = normal_quantile (percentile /. 100.0) in
  let s = nvt n_swing temp_k in
  Float.exp (z *. sigma /. s)
