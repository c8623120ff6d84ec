(* Fenwick (binary indexed) tree over access timestamps, counting
   holes (Almási, Caşcaval and Padua, "Calculating stack distances
   efficiently", MSP 2002).  Every timestamp below [time] is either the
   last access of its block, or a hole: an access whose block has been
   accessed again since.  tree.(i) covers a range ending at i
   (1-based) and a '1' sits at each hole, so the blocks accessed
   strictly after [prev] are the timestamps after it minus the holes
   after it, which is exactly the reuse distance.  A first touch adds
   no hole and does no tree work; a re-access turns its previous
   timestamp into one. *)

type t = {
  block_bytes : int;
  block_shift : int;            (* log2 block_bytes *)
  min_capacity : int;           (* floor of the timestamp space after compaction *)
  mutable tree : int array;     (* 1-based Fenwick array of holes *)
  mutable capacity : int;
  mutable time : int;           (* next timestamp, 0-based *)
  mutable holes : int;          (* holes in the tree *)
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
    holes = 0;
    last_access = Intmap.create ~initial_capacity:4096 ();
    hist = Array.make 256 0;
    hist_used = 0;
    accesses = 0;
    measuring = true;
    cold_measured = 0;
  }

let add_hole t idx =
  (* idx is a 0-based timestamp *)
  let tree = t.tree and capacity = t.capacity in
  let i = ref (idx + 1) in
  while !i <= capacity do
    tree.(!i) <- tree.(!i) + 1;
    i := !i + (!i land - !i)
  done;
  t.holes <- t.holes + 1

let fen_prefix t idx =
  (* holes at timestamps <= idx (0-based) *)
  let tree = t.tree in
  let acc = ref 0 in
  let i = ref (idx + 1) in
  while !i > 0 do
    acc := !acc + tree.(!i);
    i := !i - (!i land - !i)
  done;
  !acc

(* Renumber the live timestamps 0..live-1 in order and drop every
   hole.  Triggered when the timestamp space fills; amortised
   O(capacity) per compaction, so O(1) per access.  The tree array
   first serves as the renumbering table: mark each block's timestamp,
   then an exclusive prefix sum turns each mark into the number of
   live timestamps before it, which is the block's new timestamp.  The
   map's values are rewritten in place, and the tree is zeroed: no
   holes.  The timestamp space grows to 4x the footprint when that
   exceeds it. *)
let compact t =
  let live = Intmap.length t.last_access in
  let rank = t.tree in
  Array.fill rank 0 (Array.length rank) 0;
  Intmap.fold (fun _ time () -> rank.(time) <- 1) t.last_access ();
  let next = ref 0 in
  for time = 0 to t.time - 1 do
    let marked = rank.(time) in
    rank.(time) <- !next;
    next := !next + marked
  done;
  Intmap.map_values (fun time -> rank.(time)) t.last_access;
  let capacity = max t.min_capacity (4 * live) in
  if capacity > t.capacity then begin
    t.tree <- Array.make (capacity + 1) 0;
    t.capacity <- capacity
  end
  else Array.fill t.tree 0 (Array.length t.tree) 0;
  t.time <- live;
  t.holes <- 0

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

let[@inline] access t addr =
  if t.time >= t.capacity then compact t;
  let time = t.time in
  let prev = Intmap.exchange t.last_access (addr lsr t.block_shift) time ~default:no_time in
  if t.measuring then begin
    t.accesses <- t.accesses + 1;
    if prev < 0 then t.cold_measured <- t.cold_measured + 1
    else
      (* the (time - 1 - prev) timestamps after prev, less its holes *)
      bump_hist t (time - 1 - prev - (t.holes - fen_prefix t prev))
  end;
  if prev >= 0 then add_hole t prev;
  t.time <- time + 1

let run t entries pos len =
  if pos < 0 || len < 0 || pos > Array.length entries - len then invalid_arg "Mattson.run";
  for i = pos to pos + len - 1 do
    access t (Array.unsafe_get entries i lsr 1)
  done

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
