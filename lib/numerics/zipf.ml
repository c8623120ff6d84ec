type t = {
  n : int;
  s : float;
  cdf : float array; (* cdf.(k) = P(rank <= k), strictly increasing, last = 1.0 *)
}

let create ~n ~s =
  if n <= 0 then invalid_arg "Zipf.create: n <= 0";
  if s < 0.0 then invalid_arg "Zipf.create: s < 0";
  (* the weights are written into [cdf] and normalised there, so the
     table is the only array built *)
  let cdf = Array.create_float n in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let w = float_of_int (i + 1) ** -.s in
    cdf.(i) <- w;
    total := !total +. w
  done;
  let total = !total in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (cdf.(i) /. total);
    cdf.(i) <- !acc
  done;
  cdf.(n - 1) <- 1.0;
  { n; s; cdf }

let n t = t.n
let exponent t = t.s

(* first index with cdf.(i) >= u, for u = Rng.float drawn without a
   boxed return *)
let sample t rng =
  let u = Float.of_int (Rng.bits53 rng) *. 0x1.0p-53 in
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let pmf t k =
  if k < 0 || k >= t.n then invalid_arg "Zipf.pmf: rank out of range";
  if k = 0 then t.cdf.(0) else t.cdf.(k) -. t.cdf.(k - 1)
