exception Singular

(* Gaussian elimination with partial pivoting on an augmented copy. *)
let solve a b =
  let n = Matrix.rows a in
  if Matrix.cols a <> n then invalid_arg "Linsolve.solve: matrix not square";
  if Array.length b <> n then invalid_arg "Linsolve.solve: rhs length mismatch";
  let m = Matrix.copy a in
  let x = Array.copy b in
  for col = 0 to n - 1 do
    (* pivot selection *)
    let pivot = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs (Matrix.get m r col) > Float.abs (Matrix.get m !pivot col) then
        pivot := r
    done;
    let p = !pivot in
    if Float.abs (Matrix.get m p col) < 1e-300 then raise Singular;
    if p <> col then begin
      for j = 0 to n - 1 do
        let t = Matrix.get m col j in
        Matrix.set m col j (Matrix.get m p j);
        Matrix.set m p j t
      done;
      let t = x.(col) in
      x.(col) <- x.(p);
      x.(p) <- t
    end;
    let d = Matrix.get m col col in
    for r = col + 1 to n - 1 do
      let f = Matrix.get m r col /. d in
      if f <> 0.0 then begin
        for j = col to n - 1 do
          Matrix.set m r j (Matrix.get m r j -. (f *. Matrix.get m col j))
        done;
        x.(r) <- x.(r) -. (f *. x.(col))
      end
    done
  done;
  (* back substitution *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Matrix.get m i j *. x.(j))
    done;
    x.(i) <- !acc /. Matrix.get m i i
  done;
  x

(* Householder QR on the row-weighted design, after scaling every column
   to unit norm.  Weighting rows by √wᵢ turns the problem into ordinary
   least squares; the column scaling keeps designs whose columns span
   many decades (the leakage fit's 1, exp(a1·Vth), exp(a2·Tox)) from
   losing the small columns to rounding, which squaring them in the
   normal equations did.  A column that is zero, or dependent on the
   earlier ones to within rounding, raises [Singular].

   The factorisation keeps R (in [q]'s upper triangle), the column
   scales, √w and every reflector, so each right-hand side costs one
   pass of reflections and a back substitution.  A right-hand side
   sees the same reflections, in the same order and arithmetic, as it
   would reduced beside the design's columns, so solving many against
   one factorisation gives the bits of factoring for each. *)
type qr = {
  nr : int;
  nc : int;
  q : float array;     (* the weighted design, column-major, reduced to R *)
  scale : float array; (* column norms *)
  sw : float array;    (* √wᵢ *)
  v : float array;     (* reflector k in rows k.. of column k, column-major *)
  vv : float array;    (* ‖v_k‖² *)
  y : float array;     (* rhs workspace *)
}

let qr ~rows ~cols =
  if rows < cols then invalid_arg "Linsolve.lstsq: underdetermined system";
  {
    nr = rows;
    nc = cols;
    q = Array.make (rows * cols) 0.0;
    scale = Array.make cols 0.0;
    sw = Array.make rows 0.0;
    v = Array.make (rows * cols) 0.0;
    vv = Array.make cols 0.0;
    y = Array.make rows 0.0;
  }

(* apply reflector [k] to rows k.. of the column at [off] in [col] *)
let reflect f k (col : float array) off =
  let nr = f.nr and v = f.v and voff = k * f.nr in
  let dot = ref 0.0 in
  for i = k to nr - 1 do
    dot := !dot +. (v.(voff + i) *. col.(off + i))
  done;
  let tau = 2.0 *. !dot /. f.vv.(k) in
  for i = k to nr - 1 do
    col.(off + i) <- col.(off + i) -. (tau *. v.(voff + i))
  done

let factor_weighted f design ~weights =
  let nr = f.nr and nc = f.nc in
  if Array.length design <> nr * nc then
    invalid_arg "Linsolve.factor_weighted: design size mismatch";
  if Array.length weights <> nr then invalid_arg "Linsolve.lstsq: weights length mismatch";
  for i = 0 to nr - 1 do
    if weights.(i) < 0.0 then invalid_arg "Linsolve.lstsq: negative weight"
  done;
  let q = f.q and v = f.v in
  for i = 0 to nr - 1 do
    let s = Float.sqrt weights.(i) in
    f.sw.(i) <- s;
    for j = 0 to nc - 1 do
      q.((j * nr) + i) <- s *. design.((j * nr) + i)
    done
  done;
  for j = 0 to nc - 1 do
    let acc = ref 0.0 in
    for i = 0 to nr - 1 do
      acc := !acc +. (q.((j * nr) + i) *. q.((j * nr) + i))
    done;
    let norm = Float.sqrt !acc in
    if norm = 0.0 then raise Singular;
    f.scale.(j) <- norm;
    for i = 0 to nr - 1 do
      q.((j * nr) + i) <- q.((j * nr) + i) /. norm
    done
  done;
  (* unit columns put |R_00| = 1, so a fixed floor is a relative one *)
  let rank_floor = float_of_int nr *. epsilon_float in
  for k = 0 to nc - 1 do
    let off = k * nr in
    let acc = ref 0.0 in
    for i = k to nr - 1 do
      acc := !acc +. (q.(off + i) *. q.(off + i))
    done;
    let norm = Float.sqrt !acc in
    if norm <= rank_floor then raise Singular;
    let alpha = if q.(off + k) > 0.0 then -.norm else norm in
    for i = k to nr - 1 do
      v.(off + i) <- q.(off + i)
    done;
    v.(off + k) <- v.(off + k) -. alpha;
    let vv = ref 0.0 in
    for i = k to nr - 1 do
      vv := !vv +. (v.(off + i) *. v.(off + i))
    done;
    f.vv.(k) <- !vv;
    q.(off + k) <- alpha;
    for j = k + 1 to nc - 1 do
      reflect f k q (j * nr)
    done
  done

let solve_into f b x =
  let nr = f.nr and nc = f.nc and q = f.q and y = f.y in
  if Array.length b <> nr then invalid_arg "Linsolve.lstsq: rhs length mismatch";
  if Array.length x <> nc then invalid_arg "Linsolve.solve_into: solution length mismatch";
  for i = 0 to nr - 1 do
    y.(i) <- f.sw.(i) *. b.(i)
  done;
  for k = 0 to nc - 1 do
    reflect f k y 0
  done;
  (* back substitution on R, then undo the column scaling *)
  for k = nc - 1 downto 0 do
    let acc = ref y.(k) in
    for j = k + 1 to nc - 1 do
      acc := !acc -. (q.((j * nr) + k) *. x.(j))
    done;
    x.(k) <- !acc /. q.((k * nr) + k)
  done;
  for j = 0 to nc - 1 do
    x.(j) <- x.(j) /. f.scale.(j)
  done

let lstsq_weighted a b ~weights =
  let nr = Matrix.rows a and nc = Matrix.cols a in
  if Array.length b <> nr then invalid_arg "Linsolve.lstsq: rhs length mismatch";
  if Array.length weights <> nr then invalid_arg "Linsolve.lstsq: weights length mismatch";
  let f = qr ~rows:nr ~cols:nc in
  factor_weighted f (Array.init (nr * nc) (fun k -> Matrix.get a (k mod nr) (k / nr))) ~weights;
  let x = Array.make nc 0.0 in
  solve_into f b x;
  x

let lstsq a b = lstsq_weighted a b ~weights:(Array.make (Matrix.rows a) 1.0)

let invert a =
  let n = Matrix.rows a in
  if Matrix.cols a <> n then invalid_arg "Linsolve.invert: matrix not square";
  let inv = Matrix.create ~rows:n ~cols:n in
  for j = 0 to n - 1 do
    let e = Array.init n (fun i -> if i = j then 1.0 else 0.0) in
    let col = solve a e in
    for i = 0 to n - 1 do
      Matrix.set inv i j col.(i)
    done
  done;
  inv
