type t = {
  rows : int;
  cols : int;
  data : float array; (* row-major *)
}

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: non-positive dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let rows m = m.rows
let cols m = m.cols

let check_bounds m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg
      (Printf.sprintf "Matrix: index (%d,%d) out of bounds for %dx%d" i j m.rows m.cols)

let get m i j =
  check_bounds m i j;
  m.data.((i * m.cols) + j)

let set m i j v =
  check_bounds m i j;
  m.data.((i * m.cols) + j) <- v

(* Unchecked accessors for inner loops. *)
let unsafe_get m i j = Array.unsafe_get m.data ((i * m.cols) + j)
let unsafe_set m i j v = Array.unsafe_set m.data ((i * m.cols) + j) v

let of_rows a =
  let nr = Array.length a in
  if nr = 0 then invalid_arg "Matrix.of_rows: empty";
  let nc = Array.length a.(0) in
  if nc = 0 then invalid_arg "Matrix.of_rows: empty row";
  let m = create ~rows:nr ~cols:nc in
  Array.iteri
    (fun i row ->
      if Array.length row <> nc then invalid_arg "Matrix.of_rows: ragged rows";
      Array.iteri (fun j v -> unsafe_set m i j v) row)
    a;
  m

let identity n =
  let m = create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    unsafe_set m i i 1.0
  done;
  m

let copy m = { m with data = Array.copy m.data }

let transpose m =
  let r = create ~rows:m.cols ~cols:m.rows in
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      unsafe_set r j i (unsafe_get m i j)
    done
  done;
  r

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
  let r = create ~rows:a.rows ~cols:b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = unsafe_get a i k in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          unsafe_set r i j (unsafe_get r i j +. (aik *. unsafe_get b k j))
        done
    done
  done;
  r

let mul_vec a x =
  if a.cols <> Array.length x then invalid_arg "Matrix.mul_vec: dimension mismatch";
  Array.init a.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to a.cols - 1 do
        acc := !acc +. (unsafe_get a i j *. Array.unsafe_get x j)
      done;
      !acc)

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Matrix.add: shape mismatch";
  { a with data = Array.mapi (fun i v -> v +. b.data.(i)) a.data }

let scale k m = { m with data = Array.map (fun v -> k *. v) m.data }

let map_row m i f =
  if i < 0 || i >= m.rows then invalid_arg "Matrix.map_row: row out of bounds";
  for j = 0 to m.cols - 1 do
    unsafe_set m i j (f (unsafe_get m i j))
  done

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf fmt "[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf fmt ", ";
      Format.fprintf fmt "%g" (unsafe_get m i j)
    done;
    Format.fprintf fmt "]";
    if i < m.rows - 1 then Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"

let equal ?(eps = 1e-12) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a.data b.data
