(* Unit + property tests for nmcache_numerics. *)

module Matrix = Nmcache_numerics.Matrix
module Linsolve = Nmcache_numerics.Linsolve
module Minimize = Nmcache_numerics.Minimize
module Stats = Nmcache_numerics.Stats
module Rng = Nmcache_numerics.Rng
module Zipf = Nmcache_numerics.Zipf

let close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.12g vs %.12g" msg expected actual)
    true
    (Float.abs (expected -. actual) <= eps *. Float.max 1.0 (Float.abs expected))

(* --- matrix --------------------------------------------------------- *)

let test_matrix_basics () =
  let m = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  close "get" 3.0 (Matrix.get m 1 0);
  Matrix.set m 1 0 7.0;
  close "set" 7.0 (Matrix.get m 1 0);
  Alcotest.(check int) "rows" 2 (Matrix.rows m);
  Alcotest.(check int) "cols" 2 (Matrix.cols m)

let test_matrix_validation () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Matrix.of_rows: ragged rows") (fun () ->
      ignore (Matrix.of_rows [| [| 1.0 |]; [| 1.0; 2.0 |] |]));
  Alcotest.check_raises "bad dims"
    (Invalid_argument "Matrix.create: non-positive dimension") (fun () ->
      ignore (Matrix.create ~rows:0 ~cols:3))

let test_matrix_mul () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_rows [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Matrix.mul a b in
  close "c00" 19.0 (Matrix.get c 0 0);
  close "c01" 22.0 (Matrix.get c 0 1);
  close "c10" 43.0 (Matrix.get c 1 0);
  close "c11" 50.0 (Matrix.get c 1 1)

let test_matrix_identity_transpose () =
  let a = Matrix.of_rows [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let at = Matrix.transpose a in
  Alcotest.(check bool) "transpose twice" true (Matrix.equal a (Matrix.transpose at));
  let i3 = Matrix.identity 3 in
  Alcotest.(check bool) "a * I = a" true (Matrix.equal a (Matrix.mul a i3))

let test_mul_vec () =
  let a = Matrix.of_rows [| [| 2.0; 0.0 |]; [| 1.0; 1.0 |] |] in
  let y = Matrix.mul_vec a [| 3.0; 4.0 |] in
  close "y0" 6.0 y.(0);
  close "y1" 7.0 y.(1)

(* --- linsolve ------------------------------------------------------- *)

let test_solve_exact () =
  let a = Matrix.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Linsolve.solve a [| 5.0; 10.0 |] in
  close "x0" 1.0 x.(0) ~eps:1e-12;
  close "x1" 3.0 x.(1) ~eps:1e-12

let test_solve_singular () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" Linsolve.Singular (fun () ->
      ignore (Linsolve.solve a [| 1.0; 2.0 |]))

let test_invert () =
  let a = Matrix.of_rows [| [| 4.0; 7.0 |]; [| 2.0; 6.0 |] |] in
  let inv = Linsolve.invert a in
  Alcotest.(check bool) "a * a^-1 = I" true
    (Matrix.equal ~eps:1e-9 (Matrix.mul a inv) (Matrix.identity 2))

let test_lstsq_overdetermined () =
  (* y = 2x + 1 with exact data: least squares recovers it *)
  let rows = Array.init 10 (fun i -> [| 1.0; float_of_int i |]) in
  let ys = Array.init 10 (fun i -> 1.0 +. (2.0 *. float_of_int i)) in
  let c = Linsolve.lstsq (Matrix.of_rows rows) ys in
  close "intercept" 1.0 c.(0) ~eps:1e-6;
  close "slope" 2.0 c.(1) ~eps:1e-6

(* The leakage fit's design at the 6x4-step characterisation grid:
   columns 1, exp(-29 Vth) and exp(-1.9 Tox_A) span about 12 decades,
   with relative-error weights 1/y^2.  Normal equations square that
   spread, and their ridge then swamped the small column; the
   column-scaled QR recovers the planted coefficients to rounding. *)
let test_lstsq_weighted_leak_design () =
  let vths = Minimize.linspace ~lo:0.2 ~hi:0.5 ~steps:6 in
  let toxs = Minimize.linspace ~lo:10.0 ~hi:14.0 ~steps:4 in
  let rows =
    Array.concat
      (Array.to_list
         (Array.map
            (fun v ->
              Array.map (fun x -> [| 1.0; Float.exp (-29.0 *. v); Float.exp (-1.9 *. x) |]) toxs)
            vths))
  in
  let planted = [| 2e-4; 0.3; 5e5 |] in
  let a = Matrix.of_rows rows in
  let ys = Matrix.mul_vec a planted in
  let weights = Array.map (fun y -> 1.0 /. (y *. y)) ys in
  let c = Linsolve.lstsq_weighted a ys ~weights in
  Array.iteri
    (fun i p ->
      let rel = Float.abs (c.(i) -. p) /. Float.abs p in
      Alcotest.(check bool)
        (Printf.sprintf "coefficient %d: %.12g vs planted %g (rel %.1e)" i c.(i) p rel)
        true (rel < 1e-9))
    planted

let test_lstsq_weighted_singular () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |]; [| 3.0; 6.0 |] |] in
  Alcotest.check_raises "dependent columns" Linsolve.Singular (fun () ->
      ignore (Linsolve.lstsq_weighted a [| 1.0; 2.0; 3.0 |] ~weights:[| 1.0; 1.0; 1.0 |]));
  let z = Matrix.of_rows [| [| 1.0; 0.0 |]; [| 2.0; 0.0 |] |] in
  Alcotest.check_raises "zero column" Linsolve.Singular (fun () ->
      ignore (Linsolve.lstsq z [| 1.0; 2.0 |]))

(* Seeded weighted designs: even ones have columns scaled up to 24
   decades apart, odd ones are shaped like the leakage design
   [1; exp(a·Vth); exp(b·ToxÅ)].  Each carries three right-hand sides. *)
let random_weighted_designs () =
  let rng = Rng.create ~seed:2005L in
  List.init 240 (fun d ->
      let nc, nr =
        if d mod 2 = 0 then
          let nc = 1 + Rng.int rng ~bound:5 in
          (nc, nc + Rng.int rng ~bound:36)
        else (3, 6 + Rng.int rng ~bound:30)
      in
      let a = Matrix.create ~rows:nr ~cols:nc in
      if d mod 2 = 0 then begin
        let decade = Array.init nc (fun _ -> 10.0 ** Rng.float_range rng ~lo:(-12.0) ~hi:12.0) in
        for i = 0 to nr - 1 do
          for j = 0 to nc - 1 do
            Matrix.set a i j (decade.(j) *. Rng.float_range rng ~lo:(-1.0) ~hi:1.0)
          done
        done
      end
      else begin
        let alpha_v = Rng.float_range rng ~lo:(-40.0) ~hi:(-5.0) in
        let alpha_t = Rng.float_range rng ~lo:(-2.4) ~hi:(-0.3) in
        for i = 0 to nr - 1 do
          Matrix.set a i 0 1.0;
          Matrix.set a i 1 (Float.exp (alpha_v *. Rng.float_range rng ~lo:0.2 ~hi:0.5));
          Matrix.set a i 2 (Float.exp (alpha_t *. Rng.float_range rng ~lo:10.0 ~hi:14.0))
        done
      end;
      let weights = Array.init nr (fun _ -> Rng.float_range rng ~lo:0.0 ~hi:4.0) in
      let rhs =
        List.init 3 (fun _ -> Array.init nr (fun _ -> Rng.float_range rng ~lo:(-1e3) ~hi:1e3))
      in
      (a, weights, rhs))

(* MD5 of the hex-float solutions of [random_weighted_designs] as
   computed by the one-shot lstsq_weighted before it was split into
   factor + solve. *)
let qr_known_md5 = "a82756ef78bb47c448e225e0f65e4d72"

let test_qr_factor_solve_pinned () =
  let hex = Buffer.create 65536 and one_shot = Buffer.create 65536 in
  let add buf x = Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%h " v)) x in
  List.iter
    (fun (a, weights, rhs) ->
      let nr = Matrix.rows a and nc = Matrix.cols a in
      (* one factorisation, every right-hand side solved against it *)
      let f = Linsolve.qr ~rows:nr ~cols:nc in
      Linsolve.factor_weighted f
        (Array.init (nr * nc) (fun k -> Matrix.get a (k mod nr) (k / nr)))
        ~weights;
      List.iter
        (fun b ->
          let x = Array.make nc Float.nan in
          Linsolve.solve_into f b x;
          add hex x;
          Buffer.add_char hex '\n';
          add one_shot (Linsolve.lstsq_weighted a b ~weights);
          Buffer.add_char one_shot '\n')
        rhs)
    (random_weighted_designs ());
  let md5 buf = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  Alcotest.(check string) "factor + solve = pinned lstsq_weighted" qr_known_md5 (md5 hex);
  Alcotest.(check string) "lstsq_weighted = pinned lstsq_weighted" qr_known_md5 (md5 one_shot)

let test_qr_reuse_and_validation () =
  let f = Linsolve.qr ~rows:3 ~cols:2 in
  Alcotest.check_raises "design size"
    (Invalid_argument "Linsolve.factor_weighted: design size mismatch") (fun () ->
      Linsolve.factor_weighted f (Array.make 5 1.0) ~weights:(Array.make 3 1.0));
  Alcotest.check_raises "underdetermined"
    (Invalid_argument "Linsolve.lstsq: underdetermined system") (fun () ->
      ignore (Linsolve.qr ~rows:2 ~cols:3));
  (* y = 2x + 1, column-major [1 1 1 | 0 1 2] *)
  let design = [| 1.0; 1.0; 1.0; 0.0; 1.0; 2.0 |] and weights = [| 1.0; 2.0; 0.5 |] in
  let b = [| 1.0; 3.0; 5.0 |] and x = Array.make 2 0.0 in
  Linsolve.factor_weighted f design ~weights;
  Linsolve.solve_into f b x;
  close "intercept" 1.0 x.(0);
  close "slope" 2.0 x.(1);
  Alcotest.check_raises "rhs length" (Invalid_argument "Linsolve.lstsq: rhs length mismatch")
    (fun () -> Linsolve.solve_into f [| 1.0 |] x);
  let w0 = Gc.minor_words () in
  Linsolve.factor_weighted f design ~weights;
  Linsolve.solve_into f b x;
  let words = Gc.minor_words () -. w0 in
  if words > 0.0 then Alcotest.failf "a warm factor + solve allocated %.0f minor words" words

let prop_solve_recovers =
  QCheck.Test.make ~count:100 ~name:"solve recovers random well-conditioned systems"
    Generators.linsys_seed_arb
    (fun (seed, _) ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let n = 1 + Rng.int rng ~bound:5 in
      (* diagonally dominant => well-conditioned *)
      let a = Matrix.create ~rows:n ~cols:n in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Matrix.set a i j (Rng.float_range rng ~lo:(-1.0) ~hi:1.0)
        done;
        Matrix.set a i i (Rng.float_range rng ~lo:5.0 ~hi:10.0)
      done;
      let x = Array.init n (fun _ -> Rng.float_range rng ~lo:(-10.0) ~hi:10.0) in
      let b = Matrix.mul_vec a x in
      let x' = Linsolve.solve a b in
      Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-6) x x')

(* --- minimize --------------------------------------------------------- *)

let test_linspace () =
  let xs = Minimize.linspace ~lo:0.0 ~hi:1.0 ~steps:4 in
  Alcotest.(check int) "length" 5 (Array.length xs);
  close "first" 0.0 xs.(0);
  close "middle" 0.5 xs.(2);
  close "last" 1.0 xs.(4)

(* --- stats ------------------------------------------------------------ *)

let test_stats_basics () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  close "mean" 5.0 (Stats.mean xs);
  close "stddev" 2.0 (Stats.stddev xs);
  close "min" 2.0 (Stats.minimum xs);
  close "max" 9.0 (Stats.maximum xs)

let test_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  close "median" 3.0 (Stats.percentile xs 50.0);
  close "p0" 1.0 (Stats.percentile xs 0.0);
  close "p100" 5.0 (Stats.percentile xs 100.0);
  close "p25" 2.0 (Stats.percentile xs 25.0)

let test_r_squared () =
  let actual = [| 1.0; 2.0; 3.0 |] in
  close "perfect" 1.0 (Stats.r_squared ~actual ~predicted:actual);
  let mean_pred = [| 2.0; 2.0; 2.0 |] in
  close "mean predictor" 0.0 (Stats.r_squared ~actual ~predicted:mean_pred)

let test_rel_errors () =
  let actual = [| 10.0; 100.0 |] and predicted = [| 11.0; 90.0 |] in
  close "max rel" 0.1 (Stats.max_rel_error ~actual ~predicted);
  Alcotest.(check bool) "rms <= max" true
    (Stats.rms_rel_error ~actual ~predicted <= Stats.max_rel_error ~actual ~predicted)

let test_geometric_mean () =
  close "geomean" 4.0 (Stats.geometric_mean [| 2.0; 8.0 |]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geometric_mean: non-positive element") (fun () ->
      ignore (Stats.geometric_mean [| 1.0; 0.0 |]))

(* --- rng --------------------------------------------------------------- *)

let test_rng_reproducible () =
  let a = Rng.create ~seed:99L and b = Rng.create ~seed:99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check int) "different streams" 0 !same

(* Known answers, pinned before the generator state moved from a record
   of [int64] fields into a byte buffer: the stream must not change. *)
let test_rng_known_answers () =
  let rng = Rng.create ~seed:2005L in
  List.iter
    (fun want -> Alcotest.(check int64) "bits64" want (Rng.bits64 rng))
    [
      2072291165580959782L; -2068581103330885870L; -7538402352609517695L;
      -7045835609698293907L;
    ];
  List.iter
    (fun want -> Alcotest.(check (float 0.0)) "float" want (Rng.float rng))
    [ 0x1.3a513b23439c6p-2; 0x1.25ab3810f7e25p-1; 0x1.1afc6adf3549p-1; 0x1.dfdef23e46f88p-2 ];
  List.iter
    (fun want -> Alcotest.(check int) "int ~bound:1000" want (Rng.int rng ~bound:1000))
    [ 534; 72; 234; 742 ];
  List.iter
    (fun want ->
      Alcotest.(check int) "int ~bound:(2^61 + 12345)" want
        (Rng.int rng ~bound:((1 lsl 61) + 12345)))
    [ 2078082938728359797; 414101390549813209 ];
  (* the documented float construction from bits53 *)
  let a = Rng.create ~seed:3L in
  let b = Rng.copy a in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "float = bits53 * 2^-53" (Rng.float a)
      (Float.of_int (Rng.bits53 b) *. 0x1p-53)
  done

(* A warm draw of anything that returns an immediate allocates nothing:
   the state is read and written in place. *)
let test_rng_draw_allocates_nothing () =
  let rng = Rng.create ~seed:8L in
  let sink = ref 0 in
  let draw () =
    sink :=
      !sink + Rng.int rng ~bound:1000 + Rng.bits53 rng
      + Bool.to_int (Rng.bernoulli rng ~p:0.3)
      + Bool.to_int (Rng.bool rng)
      + Rng.geometric rng ~p:0.2
  in
  draw ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    draw ()
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !sink);
  if words > 0.0 then Alcotest.failf "10k warm draws allocated %.0f minor words" words

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:5L in
  for _ = 1 to 10_000 do
    let v = Rng.int rng ~bound:7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_rng_float_unit () =
  let rng = Rng.create ~seed:6L in
  for _ = 1 to 10_000 do
    let v = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_uniformity () =
  let rng = Rng.create ~seed:7L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int rng ~bound:10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      Alcotest.(check bool) "within 5% of uniform" true
        (abs (c - expected) < expected / 20))
    buckets

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:8L in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "still a permutation" true (sorted = Array.init 100 (fun i -> i))

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:9L in
  let n = 50_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng ~mean:3.0
  done;
  close "exponential mean" 3.0 (!acc /. float_of_int n) ~eps:0.05

let test_rng_geometric () =
  let rng = Rng.create ~seed:10L in
  let n = 50_000 in
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc + Rng.geometric rng ~p:0.25
  done;
  (* mean of geometric on {0,1,...} is (1-p)/p = 3 *)
  close "geometric mean" 3.0 (float_of_int !acc /. float_of_int n) ~eps:0.05

let test_splitmix_known () =
  (* splitmix64 must be a pure function *)
  Alcotest.(check int64) "deterministic" (Rng.splitmix64 42L) (Rng.splitmix64 42L);
  Alcotest.(check bool) "mixes" true (Rng.splitmix64 1L <> Rng.splitmix64 2L)

(* --- zipf ---------------------------------------------------------------- *)

let test_zipf_pmf_sums () =
  let z = Zipf.create ~n:100 ~s:0.9 in
  let total = ref 0.0 in
  for k = 0 to 99 do
    total := !total +. Zipf.pmf z k
  done;
  close "pmf sums to 1" 1.0 !total ~eps:1e-9

let test_zipf_monotone () =
  let z = Zipf.create ~n:50 ~s:1.1 in
  for k = 1 to 49 do
    Alcotest.(check bool) "pmf decreasing" true (Zipf.pmf z k <= Zipf.pmf z (k - 1) +. 1e-15)
  done

let test_zipf_uniform_degenerate () =
  let z = Zipf.create ~n:10 ~s:0.0 in
  for k = 0 to 9 do
    close "uniform pmf" 0.1 (Zipf.pmf z k) ~eps:1e-9
  done

(* Pearson's chi-square of [draws] pinned-seed samples against the
   closed-form pmf.  Every rank expected at least 100 times is a bin of
   its own, so an error in where the popular ranks fall shows; the rest
   of the mass is cut at rank boundaries into up to 50 bins of about
   equal mass.  Returns the statistic and its degrees of freedom. *)
let zipf_chi_square ~n ~s ~draws =
  let z = Zipf.create ~n ~s in
  let head = ref 0 in
  while !head < n && Zipf.pmf z !head *. float_of_int draws >= 100.0 do
    incr head
  done;
  let head = !head and tail_bins = 50 in
  let upper = Array.make (head + tail_bins) n in
  let mass = Array.make (head + tail_bins) 0.0 in
  for k = 0 to head - 1 do
    upper.(k) <- k + 1;
    mass.(k) <- Zipf.pmf z k
  done;
  let tail = 1.0 -. Array.fold_left ( +. ) 0.0 mass in
  let b = ref head and acc = ref 0.0 in
  for k = head to n - 1 do
    let p = Zipf.pmf z k in
    acc := !acc +. p;
    mass.(!b) <- mass.(!b) +. p;
    if !b < head + tail_bins - 1
       && !acc >= tail *. float_of_int (!b - head + 1) /. float_of_int tail_bins
       && k < n - 1
    then begin
      upper.(!b) <- k + 1;
      incr b
    end
  done;
  let used = if head = n then n else !b + 1 in
  let counts = Array.make used 0 in
  let rng = Rng.create ~seed:2005L in
  for _ = 1 to draws do
    let k = Zipf.sample z rng in
    if k < 0 || k >= n then Alcotest.failf "n=%d s=%g: rank %d out of range" n s k;
    (* the first bin whose exclusive upper rank exceeds k *)
    let lo = ref 0 and hi = ref (used - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if upper.(mid) > k then hi := mid else lo := mid + 1
    done;
    counts.(!lo) <- counts.(!lo) + 1
  done;
  let chi2 = ref 0.0 in
  for i = 0 to used - 1 do
    let expected = mass.(i) *. float_of_int draws in
    let d = float_of_int counts.(i) -. expected in
    chi2 := !chi2 +. (d *. d /. expected)
  done;
  (!chi2, used - 1)

(* The chi-square quantile at 0.999 by Wilson and Hilferty's cube:
   85.4 at 49 degrees of freedom, 1,143 at 999. *)
let chi2_999 dof =
  let k = float_of_int dof in
  let c = 2.0 /. (9.0 *. k) in
  k *. ((1.0 -. c +. (3.090 *. sqrt c)) ** 3.0)

(* Every (n, s) a registry workload samples, plus the uniform case:
   rejection-inversion must draw the closed-form law at each, from the
   4K-block warm sets to tpcc's 8M-block leaf region. *)
let test_zipf_chi_square () =
  List.iter
    (fun (n, s) ->
      let chi2, dof = zipf_chi_square ~n ~s ~draws:200_000 in
      let bound = chi2_999 dof in
      if not (chi2 <= bound) then
        Alcotest.failf "n=%d s=%g: chi-square %.1f on %d degrees of freedom (bound %.1f)" n
          s chi2 dof bound)
    [
      (1000, 0.0);
      (3072, 0.70);
      (4096, 0.70);
      (4096, 0.80);
      (8192, 0.80);
      (12288, 0.55);
      (12288, 0.80);
      (16384, 0.75);
      (32768, 0.80);
      (49152, 0.80);
      (98304, 0.80);
      (131072, 0.90);
      (524288, 0.80);
      (524288, 1.00);
      (2_097_152, 1.00);
      (4_194_304, 0.70);
      (8_388_608, 0.65);
    ]

(* A sampler is a few constants at any n (the inverse-CDF table it
   replaced was n floats: 8.4M words here), and a warm draw allocates
   nothing.  A table too big for the minor heap is allocated in the
   major heap, so both are counted; the minor collection first keeps
   promotions out of the window. *)
let test_zipf_constant_memory () =
  ignore (Sys.opaque_identity (Zipf.create ~n:16 ~s:0.65));
  Gc.minor ();
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let minor0 = Gc.minor_words () in
  let z = Zipf.create ~n:8_388_608 ~s:0.65 in
  let minor = Gc.minor_words () -. minor0 in
  let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
  if minor +. major > 32.0 then
    Alcotest.failf "Zipf.create ~n:8_388_608: %.0f minor and %.0f major words (gate: 32)" minor
      major;
  let rng = Rng.create ~seed:9L in
  let sink = ref (Zipf.sample z rng) in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sink := !sink + Zipf.sample z rng
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !sink);
  if words > 0.0 then Alcotest.failf "10k warm draws allocated %.0f minor words" words

let test_zipf_sampling_matches_pmf () =
  let z = Zipf.create ~n:20 ~s:0.8 in
  let rng = Rng.create ~seed:11L in
  let counts = Array.make 20 0 in
  let n = 200_000 in
  for _ = 1 to n do
    let k = Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  for k = 0 to 4 do
    let expected = Zipf.pmf z k *. float_of_int n in
    Alcotest.(check bool)
      (Printf.sprintf "rank %d frequency" k)
      true
      (Float.abs (float_of_int counts.(k) -. expected) < 0.05 *. expected)
  done

let qcheck = List.map Generators.to_alcotest [ prop_solve_recovers ]

let suite =
  [
    Alcotest.test_case "matrix basics" `Quick test_matrix_basics;
    Alcotest.test_case "matrix validation" `Quick test_matrix_validation;
    Alcotest.test_case "matrix multiplication" `Quick test_matrix_mul;
    Alcotest.test_case "identity and transpose" `Quick test_matrix_identity_transpose;
    Alcotest.test_case "matrix-vector product" `Quick test_mul_vec;
    Alcotest.test_case "solve exact system" `Quick test_solve_exact;
    Alcotest.test_case "solve singular raises" `Quick test_solve_singular;
    Alcotest.test_case "matrix inverse" `Quick test_invert;
    Alcotest.test_case "least squares on a line" `Quick test_lstsq_overdetermined;
    Alcotest.test_case "weighted least squares on the leak design" `Quick
      test_lstsq_weighted_leak_design;
    Alcotest.test_case "weighted least squares singular" `Quick test_lstsq_weighted_singular;
    Alcotest.test_case "weighted QR pinned bit for bit" `Quick
      test_qr_factor_solve_pinned;
    Alcotest.test_case "weighted QR reuse and validation" `Quick test_qr_reuse_and_validation;
    Alcotest.test_case "linspace" `Quick test_linspace;
    Alcotest.test_case "stats basics" `Quick test_stats_basics;
    Alcotest.test_case "percentiles" `Quick test_percentile;
    Alcotest.test_case "r squared" `Quick test_r_squared;
    Alcotest.test_case "relative errors" `Quick test_rel_errors;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "rng reproducible" `Quick test_rng_reproducible;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng known answers (seed 2005)" `Quick test_rng_known_answers;
    Alcotest.test_case "alloc gate: a warm rng draw allocates 0 words" `Quick
      test_rng_draw_allocates_nothing;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng float unit interval" `Quick test_rng_float_unit;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "exponential sample mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "geometric sample mean" `Quick test_rng_geometric;
    Alcotest.test_case "splitmix64" `Quick test_splitmix_known;
    Alcotest.test_case "zipf pmf sums to one" `Quick test_zipf_pmf_sums;
    Alcotest.test_case "zipf pmf monotone" `Quick test_zipf_monotone;
    Alcotest.test_case "zipf s=0 uniform" `Quick test_zipf_uniform_degenerate;
    Alcotest.test_case "zipf sampling frequencies" `Quick test_zipf_sampling_matches_pmf;
    Alcotest.test_case "zipf chi-square against the pmf" `Quick test_zipf_chi_square;
    Alcotest.test_case "alloc gate: zipf create and draw" `Quick test_zipf_constant_memory;
  ]
  @ qcheck
