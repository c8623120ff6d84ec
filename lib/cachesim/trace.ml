type entry = {
  addr : int;
  write : bool;
}

type t = entry array

let of_entries a = Array.copy a

let record ~next ~n =
  if n < 0 then invalid_arg "Trace.record: n < 0";
  Array.init n (fun _ -> next ())

let length = Array.length
let get t i = t.(i)
let iter t f = Array.iter f t

(* replay loops carry the engine's cooperative deadline seam: one poll
   every 4096 accesses converts a wedged replay into a typed
   [timed_out] fault without measurable overhead *)
let replay t cache =
  Array.iteri
    (fun i e ->
      if i land 4095 = 4095 then Nmcache_engine.Deadline.poll ~stage:"cachesim.replay";
      ignore (Cache.access cache e.addr ~write:e.write))
    t

let replay_hierarchy t p =
  Array.iteri
    (fun i e ->
      if i land 4095 = 4095 then Nmcache_engine.Deadline.poll ~stage:"cachesim.replay";
      ignore (Cache.step p e.addr ~write:e.write))
    t

type stats = {
  accesses : int;
  writes : int;
  distinct_blocks : int;
  footprint_bytes : int;
  sequential_fraction : float;
}

let zero_stats =
  {
    accesses = 0;
    writes = 0;
    distinct_blocks = 0;
    footprint_bytes = 0;
    sequential_fraction = 0.0;
  }

(* Incremental form of [analyze], shared with the streaming engine:
   memory is O(footprint) — the distinct-block set — never O(trace). *)
type analyzer = {
  blocks : Intmap.t;  (* the distinct [addr / 64] blocks, zigzagged *)
  mutable a_accesses : int;
  mutable a_writes : int;
  mutable a_sequential : int;
  mutable a_prev : int;
}

let analyzer () =
  {
    blocks = Intmap.create ~initial_capacity:4096 ();
    a_accesses = 0;
    a_writes = 0;
    a_sequential = 0;
    a_prev = min_int;
  }

let feed_analyzer a addr write =
  a.a_accesses <- a.a_accesses + 1;
  if write then a.a_writes <- a.a_writes + 1;
  (* zigzag keeps a negative block distinct, and Intmap keys non-negative *)
  let b = addr / 64 in
  ignore (Intmap.add_if_absent a.blocks ((b lsl 1) lxor (b asr 62)));
  if a.a_prev <> min_int && addr >= a.a_prev && addr <= a.a_prev + 64 then
    a.a_sequential <- a.a_sequential + 1;
  a.a_prev <- addr

(* total, unlike [analyze]: an empty stream has a defined answer *)
let analyzer_stats a =
  if a.a_accesses = 0 then zero_stats
  else
    {
      accesses = a.a_accesses;
      writes = a.a_writes;
      distinct_blocks = Intmap.length a.blocks;
      footprint_bytes = 64 * Intmap.length a.blocks;
      sequential_fraction =
        float_of_int a.a_sequential /. float_of_int a.a_accesses;
    }

let analyze t =
  if Array.length t = 0 then invalid_arg "Trace.analyze: empty trace";
  let a = analyzer () in
  Array.iter (fun e -> feed_analyzer a e.addr e.write) t;
  analyzer_stats a

let pp_stats fmt s =
  Format.fprintf fmt
    "%d accesses (%.1f%% writes), footprint %d blocks (%.1f KB), %.1f%% sequential"
    s.accesses
    (100.0 *. float_of_int s.writes /. float_of_int (max 1 s.accesses))
    s.distinct_blocks
    (float_of_int s.footprint_bytes /. 1024.0)
    (100.0 *. s.sequential_fraction)
