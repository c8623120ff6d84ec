(* Open-addressing int -> int hash map with flat arrays and linear
   probing, for the simulator hot loops (cold-miss sets, last-access
   timestamps).  No deletion — the simulators only insert and
   overwrite — so probe chains never need tombstones.  Keys must be
   non-negative (block numbers, timestamps); [min_int] marks an empty
   slot. *)

(* probe-length accounting: bucket i counts lookups that inspected i
   extra slots past the first (0 = direct hit); the last bucket
   aggregates 16+.  Kept per map as a plain array bump — the hot loops
   must never touch a lock — and drained into the Metrics registry in
   bulk by the profile layer. *)
let probe_hist_buckets = 17

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int;          (* capacity - 1; capacity a power of two *)
  mutable size : int;
  mutable limit : int;         (* grow when [size] reaches this *)
  probe_hist : int array;
}

let empty_key = min_int

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let make_arrays capacity =
  (Array.make capacity empty_key, Array.make capacity 0)

let limit_of capacity = capacity - (capacity / 4) (* 0.75 load factor *)

let create ?(initial_capacity = 16) () =
  let capacity = pow2_at_least (max 16 initial_capacity) 16 in
  let keys, vals = make_arrays capacity in
  {
    keys;
    vals;
    mask = capacity - 1;
    size = 0;
    limit = limit_of capacity;
    probe_hist = Array.make probe_hist_buckets 0;
  }

(* Fibonacci-style multiplicative mix: consecutive block numbers (the
   common case for streaming workloads) must not collide into one probe
   chain. *)
let hash k =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let length t = t.size

let rec probe keys mask k i =
  let slot = i land mask in
  let cur = keys.(slot) in
  if cur = k || cur = empty_key then slot else probe keys mask k (i + 1)

(* the counted variant used by the public operations; [grow]'s rehash
   keeps the free [probe] so resizes don't pollute the histogram.  A
   top-level recursion (no local closure) keeps lookups
   allocation-free. *)
let rec probe_counted_from t keys mask k i n =
  let slot = i land mask in
  let cur = keys.(slot) in
  if cur = k || cur = empty_key then begin
    let b = if n >= probe_hist_buckets then probe_hist_buckets - 1 else n in
    t.probe_hist.(b) <- t.probe_hist.(b) + 1;
    slot
  end
  else probe_counted_from t keys mask k (i + 1) (n + 1)

let probe_counted t k = probe_counted_from t t.keys t.mask k (hash k) 0

let drain_probe_hist t =
  let out = Array.copy t.probe_hist in
  Array.fill t.probe_hist 0 probe_hist_buckets 0;
  out

let grow t =
  let capacity = (t.mask + 1) * 2 in
  let keys, vals = make_arrays capacity in
  let mask = capacity - 1 in
  let old_keys = t.keys and old_vals = t.vals in
  for i = 0 to Array.length old_keys - 1 do
    let k = old_keys.(i) in
    if k <> empty_key then begin
      let slot = probe keys mask k (hash k) in
      keys.(slot) <- k;
      vals.(slot) <- old_vals.(i)
    end
  done;
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- mask;
  t.limit <- limit_of capacity

let find t k ~default =
  let slot = probe_counted t k in
  if t.keys.(slot) = k then t.vals.(slot) else default

let mem t k =
  let slot = probe_counted t k in
  t.keys.(slot) = k

let replace t k v =
  if k < 0 then invalid_arg "Intmap.replace: negative key";
  let slot = probe_counted t k in
  if t.keys.(slot) = k then t.vals.(slot) <- v
  else begin
    t.keys.(slot) <- k;
    t.vals.(slot) <- v;
    t.size <- t.size + 1;
    if t.size >= t.limit then grow t
  end

let exchange t k v ~default =
  if k < 0 then invalid_arg "Intmap.exchange: negative key";
  let slot = probe_counted t k in
  if t.keys.(slot) = k then begin
    let old = t.vals.(slot) in
    t.vals.(slot) <- v;
    old
  end
  else begin
    t.keys.(slot) <- k;
    t.vals.(slot) <- v;
    t.size <- t.size + 1;
    if t.size >= t.limit then grow t;
    default
  end

let add_if_absent t k =
  if k < 0 then invalid_arg "Intmap.add_if_absent: negative key";
  let slot = probe_counted t k in
  if t.keys.(slot) = k then false
  else begin
    t.keys.(slot) <- k;
    t.vals.(slot) <- 0;
    t.size <- t.size + 1;
    if t.size >= t.limit then grow t;
    true
  end

let fold f t init =
  let acc = ref init in
  for i = 0 to Array.length t.keys - 1 do
    if t.keys.(i) <> empty_key then acc := f t.keys.(i) t.vals.(i) !acc
  done;
  !acc

let map_values f t =
  for i = 0 to Array.length t.keys - 1 do
    if t.keys.(i) <> empty_key then t.vals.(i) <- f t.vals.(i)
  done
