type t = {
  l1 : Cache.t;
  l2 : Cache.t;
  mutable memory_reads : int;
  mutable memory_writes : int;
}

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
  { l1; l2; memory_reads = 0; memory_writes = 0 }

let access t addr ~write =
  let o1 = Cache.access t.l1 addr ~write in
  if Cache.hit o1 then { l1_hit = true; l2_hit = false; memory_access = false }
  else begin
    (* write back the dirty L1 victim into L2 *)
    if Cache.victim_dirty o1 then begin
      let victim_addr =
        Address.of_block (Cache.victim o1) ~block_bytes:(Cache.block_bytes t.l1)
      in
      let o_wb = Cache.access t.l2 victim_addr ~write:true in
      if Cache.victim_dirty o_wb then t.memory_writes <- t.memory_writes + 1;
      if not (Cache.hit o_wb) then
        (* allocating the write-back that missed L2 fetches the line *)
        t.memory_reads <- t.memory_reads + 1
    end;
    (* demand fetch from L2 *)
    let o2 = Cache.access t.l2 addr ~write:false in
    if Cache.victim_dirty o2 then t.memory_writes <- t.memory_writes + 1;
    if Cache.hit o2 then { l1_hit = false; l2_hit = true; memory_access = false }
    else begin
      t.memory_reads <- t.memory_reads + 1;
      { l1_hit = false; l2_hit = false; memory_access = true }
    end
  end

let l1 t = t.l1
let l2 t = t.l2
let memory_reads t = t.memory_reads
let memory_writes t = t.memory_writes
let l1_miss_rate t = Stats.miss_rate (Cache.stats t.l1)
let l2_local_miss_rate t = Stats.miss_rate (Cache.stats t.l2)

let l2_global_miss_rate t =
  let s1 = Cache.stats t.l1 and s2 = Cache.stats t.l2 in
  if s1.Stats.accesses = 0 then 0.0
  else float_of_int s2.Stats.misses /. float_of_int s1.Stats.accesses
