type t = {
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable read_accesses : int;
  mutable write_accesses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable cold_misses : int;
}

let create () =
  {
    accesses = 0;
    hits = 0;
    misses = 0;
    read_accesses = 0;
    write_accesses = 0;
    evictions = 0;
    writebacks = 0;
    cold_misses = 0;
  }

let reset t =
  t.accesses <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.read_accesses <- 0;
  t.write_accesses <- 0;
  t.evictions <- 0;
  t.writebacks <- 0;
  t.cold_misses <- 0

let miss_rate t = if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses
let hit_rate t = if t.accesses = 0 then 0.0 else float_of_int t.hits /. float_of_int t.accesses

(* Bulk flush into the engine metrics registry — one call per finished
   simulation, never per access, so the simulator's hot loop stays
   lock-free. *)
let flush_to_metrics ~prefix t =
  let module Metrics = Nmcache_engine.Metrics in
  let add name v = if v <> 0 then Metrics.incr ~by:v (prefix ^ "." ^ name) in
  add "accesses" t.accesses;
  add "hits" t.hits;
  add "misses" t.misses;
  add "evictions" t.evictions;
  add "writebacks" t.writebacks;
  add "cold_misses" t.cold_misses

let pp fmt t =
  Format.fprintf fmt "acc=%d hit=%d miss=%d (%.3f%%) wb=%d cold=%d" t.accesses t.hits
    t.misses (100.0 *. miss_rate t) t.writebacks t.cold_misses
