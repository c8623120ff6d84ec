(* Rejection-inversion (Hörmann and Derflinger, "Rejection-inversion to
   generate variates from monotone discrete distributions", ACM TOMACS
   6(3), 1996) over ranks 1..n weighing h(k) = k^-s, with H an
   antiderivative of h: (x^(1-s) - 1) / (1 - s), or log x at s = 1.
   A uniform u in (H(1.5) - h(1), H(n + 0.5)] is inverted to
   x = H^-1(u) and rounded to the nearest rank k.  Rank 1 owns the u
   below H(1.5), and rank k > 1 those in (H(k - 0.5), H(k + 0.5)], at
   least h(k) wide because h is convex; each rank is accepted on the top
   h(k) of its share, u >= H(k + 0.5) - h(k), so it is drawn with
   probability exactly h(k) / sum h, from three scalars and no table.  Written with [expm1] and [log1p] ([helper2],
   [helper1]), one form of H and H^-1 covers every s >= 0, s = 1
   included. *)

type t = {
  n : int;
  s : float;
  h_x1 : float; (* H(1.5) - h(1): the low end of the hat's interval *)
  h_n : float; (* H(n + 0.5): its high end *)
  squeeze : float; (* k - x <= squeeze accepts without evaluating H *)
  mutable norm : float; (* sum of h over the ranks; nan until [pmf] needs it *)
}

(* log1p x / x and expm1 x / x, by their series near 0 *)
let[@inline] helper1 x =
  if Float.abs x > 1e-8 then Float.log1p x /. x
  else 1.0 -. (x *. (0.5 -. (x *. ((1.0 /. 3.0) -. (0.25 *. x)))))

let[@inline] helper2 x =
  if Float.abs x > 1e-8 then Float.expm1 x /. x
  else 1.0 +. (x *. 0.5 *. (1.0 +. (x *. (1.0 /. 3.0) *. (1.0 +. (0.25 *. x)))))

let[@inline] h s x = exp (-.s *. log x)

let[@inline] h_integral s x =
  let log_x = log x in
  helper2 ((1.0 -. s) *. log_x) *. log_x

let[@inline] h_integral_inverse s x =
  (* the clamp keeps log1p in its domain where rounding pushes past -1 *)
  let t = x *. (1.0 -. s) in
  let t = if t < -1.0 then -1.0 else t in
  exp (helper1 t *. x)

let create ~n ~s =
  if n <= 0 then invalid_arg "Zipf.create: n <= 0";
  if s < 0.0 then invalid_arg "Zipf.create: s < 0";
  {
    n;
    s;
    h_x1 = h_integral s 1.5 -. 1.0;
    h_n = h_integral s (Float.of_int n +. 0.5);
    squeeze = 2.0 -. h_integral_inverse s (h_integral s 2.5 -. h s 2.0);
    norm = Float.nan;
  }

let n t = t.n
let exponent t = t.s

(* One uniform per attempt, drawn as [Rng.float] without its boxed
   return; everything else stays in unboxed locals, so a draw allocates
   nothing.  Over 98 % of attempts are accepted at every n (s from 0 to
   10 checked), most by the squeeze, which evaluates no H. *)
let sample t rng =
  let s = t.s in
  let rank = ref 0 in
  while !rank = 0 do
    let u =
      t.h_n +. (Float.of_int (Rng.bits53 rng) *. 0x1.0p-53 *. (t.h_x1 -. t.h_n))
    in
    let x = h_integral_inverse s u in
    let k = Float.to_int (x +. 0.5) in
    let k = if k < 1 then 1 else if k > t.n then t.n else k in
    let fk = Float.of_int k in
    if fk -. x <= t.squeeze || u >= h_integral s (fk +. 0.5) -. h s fk then rank := k
  done;
  !rank - 1

let pmf t k =
  if k < 0 || k >= t.n then invalid_arg "Zipf.pmf: rank out of range";
  if Float.is_nan t.norm then begin
    (* smallest weights first *)
    let total = ref 0.0 in
    for i = t.n downto 1 do
      total := !total +. (Float.of_int i ** -.t.s)
    done;
    t.norm <- !total
  end;
  (Float.of_int (k + 1) ** -.t.s) /. t.norm
