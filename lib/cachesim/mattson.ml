(* Fenwick (binary indexed) tree over timestamps.  tree.(i) covers a
   range ending at i (1-based).  A '1' sits at the last-access time of
   each resident block; suffix_count(time) counts blocks accessed
   strictly after [time], which is exactly the reuse distance. *)

type t = {
  block_bytes : int;
  block_shift : int;            (* log2 block_bytes *)
  min_capacity : int;           (* floor of the timestamp space after compaction *)
  mutable tree : int array;     (* 1-based Fenwick array *)
  mutable capacity : int;
  mutable time : int;           (* next timestamp, 0-based *)
  mutable live : int;           (* markers in the tree *)
  last_access : Intmap.t;       (* block -> timestamp *)
  mutable hist : int array;     (* hist.(d) = warm accesses at distance d *)
  mutable hist_used : int;      (* 1 + highest distance recorded, 0 if none *)
  mutable accesses : int;       (* measured accesses *)
  mutable measuring : bool;
  mutable cold_measured : int;
}

let log2 n =
  let rec go acc v = if v = 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 n

let create ?(initial_capacity = 1 lsl 16) ~block_bytes () =
  if block_bytes < 8 || block_bytes land (block_bytes - 1) <> 0 then
    invalid_arg "Mattson.create: bad block_bytes";
  {
    block_bytes;
    block_shift = log2 block_bytes;
    min_capacity = max 1 initial_capacity;
    tree = Array.make (initial_capacity + 1) 0;
    capacity = initial_capacity;
    time = 0;
    live = 0;
    last_access = Intmap.create ~initial_capacity:4096 ();
    hist = Array.make 256 0;
    hist_used = 0;
    accesses = 0;
    measuring = true;
    cold_measured = 0;
  }

let fen_add t idx delta =
  (* idx is a 0-based timestamp *)
  let i = ref (idx + 1) in
  while !i <= t.capacity do
    t.tree.(!i) <- t.tree.(!i) + delta;
    i := !i + (!i land - !i)
  done

let fen_prefix t idx =
  (* count of markers at timestamps <= idx (0-based) *)
  let acc = ref 0 in
  let i = ref (idx + 1) in
  while !i > 0 do
    acc := !acc + t.tree.(!i);
    i := !i - (!i land - !i)
  done;
  !acc

(* Renumber timestamps 0..live-1 preserving order, rebuilding the tree.
   Triggered when the timestamp space fills; amortised O(capacity) per
   compaction, so O(1) per access.  Timestamps are unique and below the
   capacity, so dropping each block into the tree array at its
   timestamp sorts the blocks without a list or a comparison sort; the
   tree is then refilled in place unless the timestamp space grows. *)
let compact t =
  let live = Intmap.length t.last_access in
  let slots = t.tree in
  (* slots.(time + 1) holds block + 1, 0 when no block was last
     accessed at [time] *)
  Array.fill slots 0 (Array.length slots) 0;
  Intmap.fold (fun block time () -> slots.(time + 1) <- block + 1) t.last_access ();
  Intmap.clear t.last_access;
  let next = ref 0 in
  for i = 1 to t.capacity do
    let b = slots.(i) in
    if b > 0 then begin
      Intmap.replace t.last_access (b - 1) !next;
      incr next
    end
  done;
  let capacity = max t.min_capacity (4 * live) in
  if capacity > t.capacity then begin
    t.tree <- Array.make (capacity + 1) 0;
    t.capacity <- capacity
  end;
  (* markers at timestamps 0..live-1: node i covers the timestamps
     (lo, i] (1-based), lo = i - lowbit i, and counts the live ones.
     Plain int tests, not [min]/[max]: those compare polymorphically
     through a C call, which made this loop the profiler's hot spot. *)
  let tree = t.tree in
  for i = 1 to t.capacity do
    let lo = i - (i land -i) in
    tree.(i) <- (if i <= live then i - lo else if lo < live then live - lo else 0)
  done;
  t.time <- live;
  t.live <- live

let bump_hist t dist =
  if dist >= Array.length t.hist then begin
    let grown = Array.make (max (2 * Array.length t.hist) (dist + 1)) 0 in
    Array.blit t.hist 0 grown 0 t.hist_used;
    t.hist <- grown
  end;
  t.hist.(dist) <- t.hist.(dist) + 1;
  if dist >= t.hist_used then t.hist_used <- dist + 1

let set_measuring t flag = t.measuring <- flag

(* sentinel for "block never seen": timestamps are >= 0 *)
let no_time = -1

let access t addr =
  if t.time >= t.capacity then compact t;
  let block = addr lsr t.block_shift in
  if t.measuring then t.accesses <- t.accesses + 1;
  let prev = Intmap.find t.last_access block ~default:no_time in
  if prev >= 0 then begin
    (* distance = markers strictly after prev = live - prefix(prev) *)
    if t.measuring then bump_hist t (t.live - fen_prefix t prev);
    fen_add t prev (-1);
    t.live <- t.live - 1
  end
  else if t.measuring then t.cold_measured <- t.cold_measured + 1;
  Intmap.replace t.last_access block t.time;
  fen_add t t.time 1;
  t.live <- t.live + 1;
  t.time <- t.time + 1

let accesses t = t.accesses
let distinct_blocks t = Intmap.length t.last_access
let cold_misses t = t.cold_measured

let histogram t =
  let acc = ref [] in
  for d = t.hist_used - 1 downto 0 do
    if t.hist.(d) > 0 then acc := (d, t.hist.(d)) :: !acc
  done;
  !acc

let misses_at t ~capacity_blocks =
  if capacity_blocks <= 0 then invalid_arg "Mattson.misses_at: capacity <= 0";
  let warm_misses = ref 0 in
  for d = capacity_blocks to t.hist_used - 1 do
    warm_misses := !warm_misses + t.hist.(d)
  done;
  t.cold_measured + !warm_misses

let miss_rate_at t ~capacity_blocks =
  if t.accesses = 0 then 0.0
  else float_of_int (misses_at t ~capacity_blocks) /. float_of_int t.accesses

(* Suffix CDF: sorted distinct distances plus, for each, the number of
   warm accesses at that distance or greater.  Built once in O(|hist|);
   each capacity query is then a binary search instead of re-folding
   the whole histogram. *)
let cdf t =
  let distinct = ref 0 in
  for d = 0 to t.hist_used - 1 do
    if t.hist.(d) > 0 then incr distinct
  done;
  let dists = Array.make !distinct 0 in
  let suffix = Array.make !distinct 0 in
  let i = ref (!distinct - 1) in
  let running = ref 0 in
  for d = t.hist_used - 1 downto 0 do
    if t.hist.(d) > 0 then begin
      running := !running + t.hist.(d);
      dists.(!i) <- d;
      suffix.(!i) <- !running;
      decr i
    end
  done;
  (dists, suffix)

let suffix_at ~dists ~suffix capacity_blocks =
  let n = Array.length dists in
  if n = 0 || dists.(n - 1) < capacity_blocks then 0
  else begin
    (* smallest i with dists.(i) >= capacity_blocks *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if dists.(mid) >= capacity_blocks then hi := mid else lo := mid + 1
    done;
    suffix.(!lo)
  end

let miss_ratio_curve t ~capacities =
  let dists, suffix = cdf t in
  Array.map
    (fun c ->
      if c <= 0 then invalid_arg "Mattson.miss_ratio_curve: capacity <= 0";
      if t.accesses = 0 then 0.0
      else
        float_of_int (t.cold_measured + suffix_at ~dists ~suffix c)
        /. float_of_int t.accesses)
    capacities

(* expose the last-access map's probe-length counts so the profile
   layer can drain them into the Metrics registry after a traversal *)
let drain_probe_hist t = Intmap.drain_probe_hist t.last_access
