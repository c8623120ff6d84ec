(* The xoshiro256** state is four 64-bit words in one 32-byte buffer,
   read and written in place: a record of [int64] fields would box a
   fresh word on every update, while here a draw allocates nothing.

   Invariant: every [t] is 32 bytes long.  The type is abstract, and
   only [create] (which allocates 32) and [copy] ([Bytes.copy] of a
   [t]) make one, so the word offsets 0, 8, 16 and 24 are always in
   bounds and the state is read and written without bounds checks. *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] get t i = get64u t (i lsl 3)
let[@inline] set t i v = set64u t (i lsl 3) v

let splitmix64 x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let s = ref seed in
  let next () =
    s := Int64.add !s 0x9E3779B97F4A7C15L;
    splitmix64 !s
  in
  let s0 = next () in
  let s1 = next () in
  let s2 = next () in
  let s3 = next () in
  (* xoshiro must not start in the all-zero state *)
  let words =
    if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then [ 1L; 2L; 3L; 4L ]
    else [ s0; s1; s2; s3 ]
  in
  let t = Bytes.create 32 in
  List.iteri (set t) words;
  t

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256**, inlined into every draw below so its words stay
   unboxed *)
let[@inline] bits64 t =
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 0 (Int64.logxor s0 s3);
  set t 1 (Int64.logxor s1 s2);
  set t 2 (Int64.logxor s2 (Int64.shift_left s1 17));
  set t 3 (rotl s3 45);
  result

let split t = create ~seed:(bits64 t)
let copy = Bytes.copy

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* rejection sampling on the top bits to avoid modulo bias; a loop,
     not a local recursive closure, keeps the draw allocation-free *)
  let b = Int64.of_int bound in
  let limit = Int64.sub (Int64.sub Int64.max_int b) 1L in
  let v = ref (-1) in
  while !v < 0 do
    let r = Int64.shift_right_logical (bits64 t) 1 in
    let m = Int64.rem r b in
    if Int64.sub r m <= limit then v := Int64.to_int m
  done;
  !v

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)
let[@inline] float t = Float.of_int (bits53 t) *. 0x1.0p-53

let float_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.float_range: lo > hi";
  lo +. ((hi -. lo) *. float t)

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t ~p =
  let p = Float.min 1.0 (Float.max 0.0 p) in
  float t < p

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean <= 0";
  let u = 1.0 -. float t in
  -.mean *. Float.log u

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p out of (0,1]";
  if p = 1.0 then 0
  else begin
    let u = 1.0 -. float t in
    int_of_float (Float.floor (Float.log u /. Float.log (1.0 -. p)))
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
