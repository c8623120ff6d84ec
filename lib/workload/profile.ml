module Cache = Nmcache_cachesim.Cache
module Mattson = Nmcache_cachesim.Mattson
module Replacement = Nmcache_cachesim.Replacement
module Stats = Nmcache_cachesim.Stats
module Memo = Nmcache_engine.Memo
module Metrics = Nmcache_engine.Metrics

type kind =
  | Raw
  | L1_filtered of { l1_size : int; l1_assoc : int }

type t = {
  workload : string;
  kind : kind;
  block : int;
  seed : int64;
  n : int;
  accesses : int;
  cold : int;
  dists : int array;
  counts : int array;
  suffix : int array;
  l1_miss_rate : float;
}

let warmup_fraction = Gen.warmup_fraction

(* drain the per-map probe-length counts accumulated over a traversal
   into one registry histogram: bucket index is the probe length
   (slots past the first; last bucket = 16+) *)
let flush_probe_hist counts =
  Array.iteri
    (fun len count ->
      Metrics.observe_n "cachesim.intmap.probe_len" (float_of_int len) ~count)
    counts

let cache : t Memo.t = Memo.create ~name:"workload.profiles" ()
let clear_cache () = Memo.clear cache

let key ~workload ~kind ~block ~seed ~n =
  match kind with
  | Raw ->
    Printf.sprintf "prof:raw:%s:%d:%Ld:%d:%s" workload block seed n Registry.generator_tag
  | L1_filtered { l1_size; l1_assoc } ->
    Printf.sprintf "prof:l1:%s:%d:%d:%d:%Ld:%d:%s" workload l1_size l1_assoc block seed n
      Registry.generator_tag

(* One profile under construction: a profiler, the optional L1 filter
   in front of it, and the walk consumer that runs each chunk through
   both.  Measuring starts at the consumer's warm-up boundary.

   A raw profile runs the chunk through [Mattson.run].  A filtered one
   runs it through the L1 with [Cache.run_misses], which copies the
   misses in order into [scratch], and then runs those through
   [Mattson.run]: the profiler never acts on the L1, so filtering a
   piece before profiling it gives the per-access interleaving's
   result.  A walk feeds at most [Gen.chunk_size] entries at a time,
   [scratch]'s length, so one scratch serves every filtered consumer
   of a walk (they run one after another). *)
let start ~block ~scratch kind =
  let profiler = Mattson.create ~block_bytes:block () in
  Mattson.set_measuring profiler false;
  match kind with
  | Raw ->
    ( profiler,
      None,
      {
        Gen.feed = Mattson.run profiler;
        measure = (fun () -> Mattson.set_measuring profiler true);
      } )
  | L1_filtered { l1_size; l1_assoc } ->
    let l1 =
      Cache.create ~size_bytes:l1_size ~assoc:l1_assoc ~block_bytes:block
        ~policy:Replacement.Lru ()
    in
    let feed entries pos len =
      Mattson.run profiler scratch 0 (Cache.run_misses l1 entries pos len ~into:scratch)
    in
    ( profiler,
      Some l1,
      {
        Gen.feed;
        measure =
          (fun () ->
            Cache.reset_stats l1;
            Mattson.set_measuring profiler true);
      } )

(* close a traversal: flush its counters and reduce the profiler to the
   suffix CDF *)
let finish ~workload ~kind ~block ~seed ~n profiler l1_opt =
  Metrics.incr "cachesim.mattson_curves";
  flush_probe_hist (Mattson.drain_probe_hist profiler);
  let l1_miss_rate =
    match l1_opt with
    | Some l1 ->
      flush_probe_hist (Cache.drain_probe_hist l1);
      Stats.flush_to_metrics ~prefix:"cachesim.l1" (Cache.stats l1);
      Stats.miss_rate (Cache.stats l1)
    | None -> Float.nan
  in
  let dists, suffix = Mattson.cdf profiler in
  let k = Array.length dists in
  let counts =
    Array.init k (fun i ->
        if i + 1 < k then suffix.(i) - suffix.(i + 1) else suffix.(i))
  in
  {
    workload;
    kind;
    block;
    seed;
    n;
    accesses = Mattson.accesses profiler;
    cold = Mattson.cold_misses profiler;
    dists;
    counts;
    suffix;
    l1_miss_rate;
  }

(* One measured walk of the trace builds every requested profile that
   is not memoised yet: the raw stream's CDF, or the miss stream's
   behind an L1 filter.  This is the only place in the derivation
   layer that touches the generator. *)
let build_many ?(seed = Registry.default_seed) ~workload ~n members =
  let scratch = lazy (Array.make Gen.chunk_size 0) in
  Gen.walk_memoised ~stage:"simulate"
    ~gen:(fun () -> Registry.build ~seed workload)
    ~n
    (Array.of_list
       (List.map
          (fun (kind, block) ->
            ( cache,
              key ~workload ~kind ~block ~seed ~n,
              fun () ->
                let profiler, l1_opt, consumer =
                  start ~block ~scratch:(Lazy.force scratch) kind
                in
                (consumer, fun () -> finish ~workload ~kind ~block ~seed ~n profiler l1_opt) ))
          members))
  |> Array.to_list

let build ~workload ~kind ~block ~seed ~n =
  List.hd (build_many ~seed ~workload ~n [ (kind, block) ])

let raw ?(block = 64) ?(seed = Registry.default_seed) ~workload ~n () =
  build ~workload ~kind:Raw ~block ~seed ~n

let l1_filtered ?(l1_assoc = 4) ?(block = 64) ?(seed = Registry.default_seed) ~workload
    ~l1_size ~n () =
  build ~workload ~kind:(L1_filtered { l1_size; l1_assoc }) ~block ~seed ~n

(* --- derivations: no trace traversal below this line ------------------- *)

let misses_at t ~capacity_blocks =
  if capacity_blocks <= 0 then invalid_arg "Profile.misses_at: capacity <= 0";
  t.cold + Mattson.suffix_at ~dists:t.dists ~suffix:t.suffix capacity_blocks

let miss_rate_at t ~capacity_blocks =
  (* derivation-vs-simulation accounting: every miss rate read off the
     profile counts here, every trace traversal under
     cachesim.mattson_curves / cachesim.simulations *)
  Metrics.incr "profile.derived_points";
  if t.accesses = 0 then 0.0
  else float_of_int (misses_at t ~capacity_blocks) /. float_of_int t.accesses

let curve t ~capacities = Array.map (fun c -> miss_rate_at t ~capacity_blocks:c) capacities

(* Set-associative correction (Smith / Hill-style associativity model):
   the d distinct blocks between consecutive uses of a line scatter
   uniformly over S sets, so the line survives in an A-way set iff
   fewer than A of them land in its own set —
   P(miss | d) = P(Binomial(d, 1/S) >= A).  Exact when S = 1 (the
   fully-associative stack condition d >= capacity); the binomial tail
   is evaluated with a stable log-space start and a term recurrence. *)
let setassoc_miss_rate t ~capacity_blocks ~assoc =
  if capacity_blocks <= 0 then invalid_arg "Profile.setassoc_miss_rate: capacity <= 0";
  if assoc < 1 then invalid_arg "Profile.setassoc_miss_rate: assoc < 1";
  let sets = capacity_blocks / assoc in
  if sets <= 1 then miss_rate_at t ~capacity_blocks
  else if t.accesses = 0 then 0.0
  else begin
    Metrics.incr "profile.derived_points";
    let p = 1.0 /. float_of_int sets in
    let q = 1.0 -. p in
    let lq = log q in
    let ratio = p /. q in
    let warm = ref 0.0 in
    for i = 0 to Array.length t.dists - 1 do
      let d = t.dists.(i) in
      (* fewer than [assoc] intervening blocks can never fill the set *)
      if d >= assoc then begin
        let pmf = ref (exp (float_of_int d *. lq)) in
        let below = ref 0.0 in
        for k = 0 to assoc - 1 do
          below := !below +. !pmf;
          pmf := !pmf *. (float_of_int (d - k) /. float_of_int (k + 1)) *. ratio
        done;
        let pmiss = Float.max 0.0 (1.0 -. !below) in
        warm := !warm +. (float_of_int t.counts.(i) *. pmiss)
      end
    done;
    (float_of_int t.cold +. !warm) /. float_of_int t.accesses
  end
