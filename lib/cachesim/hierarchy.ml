(* A named, checked view of [Cache.pair]: the two-level step and its
   chunk loop live in [Cache], beside [Cache.access]. *)
type t = Cache.pair

type outcome = {
  l1_hit : bool;
  l2_hit : bool;
  memory_access : bool;
}

let create ~l1 ~l2 =
  if Cache.block_bytes l1 <> Cache.block_bytes l2 then
    invalid_arg "Hierarchy.create: L1/L2 block sizes differ";
  if Cache.size_bytes l2 < Cache.size_bytes l1 then
    invalid_arg "Hierarchy.create: L2 smaller than L1";
  Cache.pair ~l1 ~l2

let l1_served = { l1_hit = true; l2_hit = false; memory_access = false }
let l2_served = { l1_hit = false; l2_hit = true; memory_access = false }
let memory_served = { l1_hit = false; l2_hit = false; memory_access = true }

let access t addr ~write =
  match Cache.step t addr ~write with
  | 0 -> l1_served
  | 1 -> l2_served
  | _ -> memory_served

let run = Cache.run_pair
let l1 (t : t) = t.l1
let l2 (t : t) = t.l2
let memory_reads (t : t) = t.memory_reads
let memory_writes (t : t) = t.memory_writes
let l1_miss_rate (t : t) = Stats.miss_rate (Cache.stats t.l1)
let l2_local_miss_rate (t : t) = Stats.miss_rate (Cache.stats t.l2)

let l2_global_miss_rate (t : t) =
  let s1 = Cache.stats t.l1 and s2 = Cache.stats t.l2 in
  if s1.Stats.accesses = 0 then 0.0
  else float_of_int s2.Stats.misses /. float_of_int s1.Stats.accesses
