module Rng = Nmcache_numerics.Rng

(* The first-touch set ([seen]) keeps one bit per block number, in pages
   of [page_bits] blocks.  A page is [page_bytes] bytes at a fixed place
   in a chunk of [chunk_pages] pages; a page directory maps a page
   number ([block lsr page_shift]) to its page index, and the last page
   a miss used is remembered, so a run of misses within one page skips
   the directory.  A fully sparse trace, one block per page, costs a
   32-byte page and one directory entry per block: at most 2.5x the
   per-block [Intmap] entry of a set that keeps blocks one by one. *)
let page_shift = 8
let page_bits = 1 lsl page_shift
let page_bytes = page_bits / 8
let chunk_shift = 7
let chunk_pages = 1 lsl chunk_shift

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
  dirty : Bytes.t;         (* sets * assoc bytes, each 0 or 1 *)
  stamp : int array;       (* LRU recency / FIFO install order *)
  plru : int array;        (* per-set PLRU tree bits *)
  rng : Rng.t;
  mutable clock : int;
  stats : Stats.t;
  (* [seen], the all-time first-touch set behind [cold_misses], probed
     on misses only; [reset_stats] leaves it alone *)
  pages : Intmap.t;                (* page number -> page index *)
  mutable chunks : Bytes.t array;  (* page index lsr chunk_shift -> chunk *)
  mutable page_count : int;
  mutable page_no : int;           (* the remembered page; -1 before the first miss *)
  mutable page_index : int;
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
    pages = Intmap.create ();
    chunks = [| Bytes.empty |];
    page_count = 0;
    page_no = -1;
    page_index = 0;
  }

let size_bytes t = t.size_bytes
let assoc t = t.assoc
let block_bytes t = t.block_bytes
let block_shift t = t.block_shift
let sets t = t.sets
let policy t = t.policy
let stats t = t.stats
let reset_stats t = Stats.reset t.stats

(* 1 when slot [i] holds [tag], else 0.  Every index below is
   [set * assoc + w] with [set < sets] and [w < assoc], inside [tags]. *)
let eq (tags : int array) i (tag : int) = Bool.to_int (Array.unsafe_get tags i = tag)

(* Way holding [tag] in the set at [base], or -1.  A tag sits in a set at
   most once, so [sum (w + 1) * eq w] is the way plus one, or 0: no
   branch depends on which way holds it.  Unrolled for the
   associativities the experiments sweep (1/2/4/8). *)
let[@inline] find_way t base tag =
  let tags = t.tags in
  match t.assoc with
  | 1 -> eq tags base tag - 1
  | 2 -> eq tags base tag + (2 * eq tags (base + 1) tag) - 1
  | 4 ->
    eq tags base tag
    + (2 * eq tags (base + 1) tag)
    + (3 * eq tags (base + 2) tag)
    + (4 * eq tags (base + 3) tag)
    - 1
  | 8 ->
    eq tags base tag
    + (2 * eq tags (base + 1) tag)
    + (3 * eq tags (base + 2) tag)
    + (4 * eq tags (base + 3) tag)
    + (5 * eq tags (base + 4) tag)
    + (6 * eq tags (base + 5) tag)
    + (7 * eq tags (base + 6) tag)
    + (8 * eq tags (base + 7) tag)
    - 1
  | a ->
    let sum = ref 0 in
    for w = 0 to a - 1 do
      sum := !sum + ((w + 1) * eq tags (base + w) tag)
    done;
    !sum - 1

(* PLRU: the tree bits of a set select a way; touching a way points the
   bits away from it.  Internal nodes are 0 .. assoc-2, leaves assoc-1
   .. 2*assoc-2, and both walks are loops of log2 assoc steps (a loop
   rather than a local closure keeps them allocation-free). *)
let plru_victim t set =
  let bits = t.plru.(set) in
  let leaves = t.assoc - 1 in
  let node = ref 0 in
  while !node < leaves do
    node := (2 * !node) + 1 + ((bits lsr !node) land 1)
  done;
  !node - leaves

let plru_touch t set way =
  let bits = ref t.plru.(set) in
  (* walk from the leaf up: a left child is odd, so [node land 1] is
     the parent's new bit, pointing at the other subtree *)
  let node = ref (way + t.assoc - 1) in
  while !node > 0 do
    let parent = (!node - 1) lsr 1 in
    bits := !bits land lnot (1 lsl parent) lor ((!node land 1) lsl parent);
    node := parent
  done;
  t.plru.(set) <- !bits

(* LRU/FIFO victim: the first invalid way, else the first way with the
   least stamp.  Stamps are never negative, so an invalid way's key is
   -1 ([stamp lor -1]) and one masked minimum applies both rules. *)
let oldest t base =
  let tags = t.tags and stamp = t.stamp in
  let best = ref 0 in
  let key = ref (Array.unsafe_get stamp base lor -eq tags base (-1)) in
  for w = 1 to t.assoc - 1 do
    let k = Array.unsafe_get stamp (base + w) lor -eq tags (base + w) (-1) in
    let take = -Bool.to_int (k < !key) in
    key := !key lxor ((!key lxor k) land take);
    best := !best lxor ((!best lxor w) land take)
  done;
  !best

(* The first invalid way of the set at [base], or [assoc] if all are
   valid; the masked scan runs downwards so the lowest such way wins. *)
let first_invalid t base =
  let tags = t.tags in
  let first = ref t.assoc in
  for w = t.assoc - 1 downto 0 do
    first := !first lxor ((!first lxor w) land -eq tags (base + w) (-1))
  done;
  !first

let choose_victim t set base =
  match t.policy with
  | Replacement.Lru | Replacement.Fifo -> oldest t base
  | Replacement.Random _ ->
    let w = first_invalid t base in
    if w < t.assoc then w else Rng.int t.rng ~bound:t.assoc
  | Replacement.Plru ->
    let w = first_invalid t base in
    if w < t.assoc then w else plru_victim t set

(* Page index of page [page_no], allocating a zeroed page the first
   time the page is asked for. *)
let page_of t page_no =
  let known = Intmap.find t.pages page_no ~default:(-1) in
  if known >= 0 then known
  else begin
    let index = t.page_count in
    let c = index lsr chunk_shift in
    if index land (chunk_pages - 1) = 0 then begin
      if c = Array.length t.chunks then begin
        let grown = Array.make (2 * c) Bytes.empty in
        Array.blit t.chunks 0 grown 0 c;
        t.chunks <- grown
      end;
      t.chunks.(c) <- Bytes.make (chunk_pages * page_bytes) '\000'
    end;
    Intmap.replace t.pages page_no index;
    t.page_count <- index + 1;
    index
  end

(* Set [block]'s first-touch bit; 1 if it was clear (a cold miss). *)
let first_touch t block =
  let page_no = block lsr page_shift in
  if page_no <> t.page_no then begin
    t.page_index <- page_of t page_no;
    t.page_no <- page_no
  end;
  let chunk = t.chunks.(t.page_index lsr chunk_shift) in
  let bit = block land (page_bits - 1) in
  let i = ((t.page_index land (chunk_pages - 1)) * page_bytes) + (bit lsr 3) in
  let byte = Char.code (Bytes.get chunk i) in
  Bytes.set chunk i (Char.unsafe_chr (byte lor (1 lsl (bit land 7))));
  1 - ((byte lsr (bit land 7)) land 1)

let block_number_of t set tag = (tag * t.sets) + set

(* The counters move by 0/1 terms, so neither a hit nor a miss branches
   on [write], on the victim's dirt or on whether the victim was valid.
   Inlined into the chunk kernels below, each of which then probes the
   set in place; other modules call it as a function. *)
let[@inline] access t addr ~write =
  let block = addr lsr t.block_shift in
  let set = block land t.set_mask in
  let tag = block lsr t.set_shift in
  let base = set * t.assoc in
  let way = find_way t base tag in
  let w = Bool.to_int write in
  let st = t.stats in
  st.Stats.accesses <- st.Stats.accesses + 1;
  st.Stats.write_accesses <- st.Stats.write_accesses + w;
  st.Stats.read_accesses <- st.Stats.read_accesses + (1 - w);
  if way >= 0 then begin
    st.Stats.hits <- st.Stats.hits + 1;
    let i = base + way in
    Bytes.set t.dirty i (Char.unsafe_chr (Char.code (Bytes.get t.dirty i) lor w));
    (match t.policy with
    | Replacement.Lru -> t.stamp.(i) <- t.clock
    | Replacement.Fifo | Replacement.Random _ -> ()
    | Replacement.Plru -> plru_touch t set way);
    t.clock <- t.clock + 1;
    hit_outcome
  end
  else begin
    st.Stats.misses <- st.Stats.misses + 1;
    (* a hit implies the block was installed by an earlier miss and is
       already in [seen], so first-touch tracking only needs the miss
       path *)
    st.Stats.cold_misses <- st.Stats.cold_misses + first_touch t block;
    let way = choose_victim t set base in
    let i = base + way in
    let old_tag = t.tags.(i) in
    (* an invalid way was never written, so its dirty byte is 0 *)
    let valid = 1 - Bool.to_int (old_tag = -1) in
    let d = Char.code (Bytes.get t.dirty i) in
    st.Stats.evictions <- st.Stats.evictions + valid;
    st.Stats.writebacks <- st.Stats.writebacks + d;
    let evicted = (block_number_of t set old_tag lsl 1) lor d in
    t.tags.(i) <- tag;
    Bytes.set t.dirty i (Char.unsafe_chr w);
    (match t.policy with
    | Replacement.Lru | Replacement.Fifo -> t.stamp.(i) <- t.clock
    | Replacement.Random _ -> ()
    | Replacement.Plru -> plru_touch t set way);
    t.clock <- t.clock + 1;
    evicted land -valid lor (fill_outcome land (valid - 1))
  end

(* ---- chunk kernels ------------------------------------------------------ *)

(* The loops below run a chunk of packed entries, [addr lsl 1 lor write]
   (Stream_trace's chunk layout), without leaving this module: [access]
   and the two-level [step] are inlined into them, so a replayed access
   makes no call through another module's closure. *)

let check_range where entries pos len =
  if pos < 0 || len < 0 || pos > Array.length entries - len then invalid_arg where

let run t entries pos len =
  check_range "Cache.run" entries pos len;
  for i = pos to pos + len - 1 do
    let e = Array.unsafe_get entries i in
    ignore (access t (e lsr 1) ~write:(e land 1 = 1))
  done

(* A miss's entry is written at [misses.(m)] whether or not the access
   missed, and [m] advances only on a miss: the copy takes no branch. *)
let run_misses t entries pos len ~into:misses =
  check_range "Cache.run_misses" entries pos len;
  if Array.length misses < len then invalid_arg "Cache.run_misses: buffer too short";
  let m = ref 0 in
  for i = pos to pos + len - 1 do
    let e = Array.unsafe_get entries i in
    let o = access t (e lsr 1) ~write:(e land 1 = 1) in
    Array.unsafe_set misses !m e;
    m := !m + Bool.to_int (o <> hit_outcome)
  done;
  !m

type pair = {
  l1 : t;
  l2 : t;
  mutable memory_reads : int;
  mutable memory_writes : int;
}

let pair ~l1 ~l2 =
  if l1.block_bytes <> l2.block_bytes then invalid_arg "Cache.pair: L1/L2 block sizes differ";
  if l2.size_bytes < l1.size_bytes then invalid_arg "Cache.pair: L2 smaller than L1";
  { l1; l2; memory_reads = 0; memory_writes = 0 }

(* One access through L1, then on a miss L2 and memory: a dirty L1
   victim is written into L2 at its first byte (its block number
   shifted by the L1's block shift), then the demand is fetched from
   L2.  A write-back that misses L2 allocates there, which reads the
   line from memory; a dirty L2 victim is written to memory.  The
   level that served the demand: 0 L1, 1 L2, 2 memory. *)
let[@inline] step p addr ~write =
  let o1 = access p.l1 addr ~write in
  if o1 = hit_outcome then 0
  else begin
    if victim_dirty o1 then begin
      let o = access p.l2 ((o1 lsr 1) lsl p.l1.block_shift) ~write:true in
      p.memory_writes <- p.memory_writes + Bool.to_int (victim_dirty o);
      p.memory_reads <- p.memory_reads + Bool.to_int (o <> hit_outcome)
    end;
    let o2 = access p.l2 addr ~write:false in
    p.memory_writes <- p.memory_writes + Bool.to_int (victim_dirty o2);
    if o2 = hit_outcome then 1
    else begin
      p.memory_reads <- p.memory_reads + 1;
      2
    end
  end

let run_pair p entries pos len =
  check_range "Cache.run_pair" entries pos len;
  for i = pos to pos + len - 1 do
    let e = Array.unsafe_get entries i in
    ignore (step p (e lsr 1) ~write:(e land 1 = 1))
  done

let l2_global_miss_rate p =
  let s1 = p.l1.stats and s2 = p.l2.stats in
  if s1.Stats.accesses = 0 then 0.0
  else float_of_int s2.Stats.misses /. float_of_int s1.Stats.accesses

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

let first_touch_words t =
  Obj.reachable_words (Obj.repr t.pages) + Obj.reachable_words (Obj.repr t.chunks)

(* expose the page directory's probe-length counts so the profile layer
   can drain them into the Metrics registry after a traversal *)
let drain_probe_hist t = Intmap.drain_probe_hist t.pages
