module Rng = Nmcache_numerics.Rng

type t = {
  size_bytes : int;
  assoc : int;
  block_bytes : int;
  sets : int;
  policy : Replacement.t;
  (* address decomposition, precomputed once so the access loop is pure
     shift/mask work *)
  block_shift : int;       (* log2 block_bytes *)
  set_mask : int;          (* sets - 1 *)
  set_shift : int;         (* log2 sets *)
  tags : int array;        (* sets * assoc; -1 = invalid; holds tag *)
  dirty : Bytes.t;         (* sets * assoc booleans *)
  stamp : int array;       (* LRU recency / FIFO install order *)
  plru : int array;        (* per-set PLRU tree bits *)
  rng : Rng.t;
  mutable clock : int;
  stats : Stats.t;
  seen : Intmap.t;         (* all-time first-touch set, consulted on misses only *)
}

(* An access outcome is one immediate int, so [access] never allocates:
   [-1] a hit, [-2] a miss that filled an invalid way, and otherwise
   [victim lsl 1 lor dirty] for a miss that evicted block [victim].
   Block numbers are [addr lsr block_shift] with [block_shift >= 3], so
   [victim lsl 1] never overflows. *)
type outcome = int

let hit_outcome = -1
let fill_outcome = -2
let hit o = o = hit_outcome
let victim o = if o >= 0 then o lsr 1 else -1
let victim_dirty o = o >= 0 && o land 1 = 1

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc v = if v = 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 n

let create ~size_bytes ~assoc ~block_bytes ~policy () =
  if not (is_pow2 size_bytes) then invalid_arg "Cache.create: size not a power of two";
  if not (is_pow2 block_bytes) || block_bytes < 8 then
    invalid_arg "Cache.create: bad block size";
  if assoc < 1 then invalid_arg "Cache.create: assoc < 1";
  if size_bytes < assoc * block_bytes then invalid_arg "Cache.create: capacity < one set";
  let sets = size_bytes / (assoc * block_bytes) in
  if not (is_pow2 sets) then invalid_arg "Cache.create: set count not a power of two";
  (match policy with
  | Replacement.Plru when not (is_pow2 assoc) ->
    invalid_arg "Cache.create: PLRU requires power-of-two associativity"
  | Replacement.Lru | Replacement.Fifo | Replacement.Random _ | Replacement.Plru -> ());
  let seed = match policy with Replacement.Random s -> s | _ -> 0 in
  {
    size_bytes;
    assoc;
    block_bytes;
    sets;
    policy;
    block_shift = log2 block_bytes;
    set_mask = sets - 1;
    set_shift = log2 sets;
    tags = Array.make (sets * assoc) (-1);
    dirty = Bytes.make (sets * assoc) '\000';
    stamp = Array.make (sets * assoc) 0;
    plru = Array.make sets 0;
    rng = Rng.create ~seed:(Int64.of_int seed);
    clock = 0;
    stats = Stats.create ();
    seen = Intmap.create ~initial_capacity:4096 ();
  }

let size_bytes t = t.size_bytes
let assoc t = t.assoc
let block_bytes t = t.block_bytes
let sets t = t.sets
let policy t = t.policy
let stats t = t.stats
let reset_stats t = Stats.reset t.stats

(* Way holding [tag] in the set at [base], or -1.  Unrolled for the
   associativities the experiments sweep (1/2/4/8); returning an int
   keeps the hot path allocation-free. *)
let find_way t base tag =
  let tags = t.tags in
  match t.assoc with
  | 1 -> if tags.(base) = tag then 0 else -1
  | 2 -> if tags.(base) = tag then 0 else if tags.(base + 1) = tag then 1 else -1
  | 4 ->
    if tags.(base) = tag then 0
    else if tags.(base + 1) = tag then 1
    else if tags.(base + 2) = tag then 2
    else if tags.(base + 3) = tag then 3
    else -1
  | 8 ->
    if tags.(base) = tag then 0
    else if tags.(base + 1) = tag then 1
    else if tags.(base + 2) = tag then 2
    else if tags.(base + 3) = tag then 3
    else if tags.(base + 4) = tag then 4
    else if tags.(base + 5) = tag then 5
    else if tags.(base + 6) = tag then 6
    else if tags.(base + 7) = tag then 7
    else -1
  | a ->
    let w = ref 0 in
    while !w < a && tags.(base + !w) <> tag do
      incr w
    done;
    if !w < a then !w else -1

(* PLRU: the tree bits of a set select a way; touching a way points the
   bits away from it. *)
let plru_victim t set =
  let bits = t.plru.(set) in
  (* internal nodes are 0 .. assoc-2, leaves assoc-1 .. 2*assoc-2; a
     loop rather than a local closure keeps the descent allocation-free *)
  let leaves = t.assoc - 1 in
  let node = ref 0 in
  while !node < leaves do
    node := (2 * !node) + 1 + ((bits lsr !node) land 1)
  done;
  !node - leaves

let plru_touch t set way =
  if t.assoc > 1 then begin
    let bits = ref t.plru.(set) in
    (* walk from the leaf up, setting each internal bit away from the
       taken direction *)
    let node = ref (way + t.assoc - 1) in
    while !node > 0 do
      let parent = (!node - 1) / 2 in
      let went_right = !node = (2 * parent) + 2 in
      let mask = 1 lsl parent in
      if went_right then bits := !bits land lnot mask else bits := !bits lor mask;
      node := parent
    done;
    t.plru.(set) <- !bits
  end

let choose_victim t set =
  let base = set * t.assoc in
  (* prefer an invalid way; a loop rather than a local closure keeps
     the miss path allocation-free *)
  let invalid = ref 0 in
  while !invalid < t.assoc && t.tags.(base + !invalid) <> -1 do
    incr invalid
  done;
  if !invalid < t.assoc then !invalid
  else (
    match t.policy with
    | Replacement.Lru | Replacement.Fifo ->
      let best = ref 0 in
      for w = 1 to t.assoc - 1 do
        if t.stamp.(base + w) < t.stamp.(base + !best) then best := w
      done;
      !best
    | Replacement.Random _ -> Rng.int t.rng ~bound:t.assoc
    | Replacement.Plru -> plru_victim t set)

let touch t set way =
  let base = set * t.assoc in
  (match t.policy with
  | Replacement.Lru -> t.stamp.(base + way) <- t.clock
  | Replacement.Fifo | Replacement.Random _ -> ()
  | Replacement.Plru -> plru_touch t set way);
  t.clock <- t.clock + 1

let install t set way tag ~write =
  let base = set * t.assoc in
  t.tags.(base + way) <- tag;
  Bytes.set t.dirty (base + way) (if write then '\001' else '\000');
  (match t.policy with
  | Replacement.Fifo -> t.stamp.(base + way) <- t.clock
  | Replacement.Lru -> t.stamp.(base + way) <- t.clock
  | Replacement.Random _ | Replacement.Plru -> ());
  touch t set way

let block_number_of t set tag = (tag * t.sets) + set

let access t addr ~write =
  let block = addr lsr t.block_shift in
  let set = block land t.set_mask in
  let tag = block lsr t.set_shift in
  let base = set * t.assoc in
  let way = find_way t base tag in
  if way >= 0 then begin
    Stats.record t.stats ~hit:true ~write;
    if write then Bytes.set t.dirty (base + way) '\001';
    touch t set way;
    hit_outcome
  end
  else begin
    Stats.record t.stats ~hit:false ~write;
    (* a hit implies the block was installed by an earlier miss and is
       already in [seen], so first-touch tracking only needs the miss
       path *)
    let cold = Intmap.add_if_absent t.seen block in
    if cold then t.stats.Stats.cold_misses <- t.stats.Stats.cold_misses + 1;
    let way = choose_victim t set in
    let old_tag = t.tags.(base + way) in
    let outcome =
      if old_tag = -1 then fill_outcome
      else begin
        t.stats.Stats.evictions <- t.stats.Stats.evictions + 1;
        let d = Bytes.get t.dirty (base + way) = '\001' in
        if d then t.stats.Stats.writebacks <- t.stats.Stats.writebacks + 1;
        (block_number_of t set old_tag lsl 1) lor Bool.to_int d
      end
    in
    install t set way tag ~write;
    outcome
  end

let contains t addr =
  let block = addr lsr t.block_shift in
  let set = block land t.set_mask in
  let tag = block lsr t.set_shift in
  find_way t (set * t.assoc) tag >= 0

let valid_blocks t =
  let acc = ref [] in
  for set = 0 to t.sets - 1 do
    for w = 0 to t.assoc - 1 do
      let tag = t.tags.((set * t.assoc) + w) in
      if tag <> -1 then acc := block_number_of t set tag :: !acc
    done
  done;
  !acc

(* expose the first-touch set's probe-length counts so the profile
   layer can drain them into the Metrics registry after a traversal *)
let drain_probe_hist t = Intmap.drain_probe_hist t.seen
