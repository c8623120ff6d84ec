type t = {
  pair : Cache.pair;
  degree : int;
  block_shift : int;
  mutable issued : int;
  mutable useful : int;
  mutable demand : int;
  mutable demand_misses : int;
  pending : Intmap.t; (* block -> 1 while prefetched and not yet demanded, else 0 *)
}

(* An access outcome is one immediate int, so [access] allocates
   nothing: bit 0 is the L1 hit, bit 1 the L2 hit, and the bits above
   count the prefetches the access issued. *)
type outcome = int

let l1_hit o = o land 1 <> 0
let l2_hit o = o land 2 <> 0
let prefetches_issued o = o lsr 2

let create ?(degree = 1) ~l1 ~l2 () =
  if degree < 0 then invalid_arg "Prefetch.create: degree < 0";
  {
    pair = Cache.pair ~l1 ~l2;
    degree;
    block_shift = Cache.block_shift l1;
    issued = 0;
    useful = 0;
    demand = 0;
    demand_misses = 0;
    pending = Intmap.create ~initial_capacity:1024 ();
  }

let hierarchy t = t.pair
let prefetches t = t.issued
let useful_prefetches t = t.useful
let accuracy t = if t.issued = 0 then 0.0 else float_of_int t.useful /. float_of_int t.issued
let demand_accesses t = t.demand
let demand_misses t = t.demand_misses

let reset_demand t =
  t.demand <- 0;
  t.demand_misses <- 0

(* Addresses are never negative and blocks are a power of two, so the
   block number is a shift, not a division. *)
let[@inline] access t addr ~write =
  let block_no = addr lsr t.block_shift in
  let l2 = t.pair.Cache.l2 in
  (* credit a pending prefetch if this demand hits one *)
  if Intmap.find t.pending block_no ~default:0 = 1 then begin
    Intmap.replace t.pending block_no 0;
    if Cache.contains l2 addr then t.useful <- t.useful + 1
  end;
  (* the level that served the demand: 0 L1, 1 L2, 2 memory *)
  let level = Cache.step t.pair addr ~write in
  let issued = ref 0 in
  if level > 0 then begin
    t.demand <- t.demand + 1;
    if level = 2 then t.demand_misses <- t.demand_misses + 1;
    (* demand L1 miss: stream the next [degree] lines into L2 *)
    for k = 1 to t.degree do
      let next = (block_no + k) lsl t.block_shift in
      if not (Cache.contains l2 next) then begin
        ignore (Cache.access l2 next ~write:false);
        t.issued <- t.issued + 1;
        incr issued;
        Intmap.replace t.pending (block_no + k) 1
      end
    done
  end;
  (!issued lsl 2) lor (Bool.to_int (level = 1) lsl 1) lor Bool.to_int (level = 0)

let run t entries pos len =
  if pos < 0 || len < 0 || pos > Array.length entries - len then invalid_arg "Prefetch.run";
  for i = pos to pos + len - 1 do
    let e = Array.unsafe_get entries i in
    ignore (access t (e lsr 1) ~write:(e land 1 = 1))
  done
