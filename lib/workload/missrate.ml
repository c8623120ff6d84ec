module Cache = Nmcache_cachesim.Cache
module Replacement = Nmcache_cachesim.Replacement
module Stats = Nmcache_cachesim.Stats
module Memo = Nmcache_engine.Memo
module Task = Nmcache_engine.Task
module Sweep = Nmcache_engine.Sweep

type point = {
  l1_miss : float;
  l2_local : float;
  l2_global : float;
}

(* process-wide, domain-safe memo tables; keys stringified for
   simplicity (they name every input the result depends on).  Whole
   miss-rate curves are derived from the stack-distance profiles in
   {!Profile}; only direct simulations still walk the trace per
   configuration, and one walk serves every configuration of a call.
   An L1-only configuration is memoised in [l1_cache] as a point whose
   L2 rates are nan. *)
let point_cache : point Memo.t = Memo.create ~name:"missrate.points" ()
let l1_cache : point Memo.t = Memo.create ~name:"missrate.l1" ()

let policy_key = function
  | Replacement.Lru -> "lru"
  | Replacement.Fifo -> "fifo"
  | Replacement.Random s -> Printf.sprintf "random%d" s
  | Replacement.Plru -> "plru"

(* The memo keys double as checkpoint slot keys for the sweep tasks
   below, so they must (and do) name every input the result depends
   on, the trace generation ({!Registry.generator_tag}) last.
   Prefixes are versioned ("curve2", "l1d", "grid3", "walk1") where a
   slot's meaning changed, so a stale journal can never alias a result
   of another shape. *)
let sim_key ~workload ~l1_size ~l2_size ~l1_assoc ~l2_assoc ~block ~policy ~seed ~n =
  Printf.sprintf "sim:%s:%d:%d:%d:%d:%d:%s:%Ld:%d:%s" workload l1_size l2_size l1_assoc
    l2_assoc block (policy_key policy) seed n Registry.generator_tag

let sizes_key sizes = String.concat "," (Array.to_list (Array.map string_of_int sizes))

let curve_key ~workload ~l1_size ~l1_assoc ~block ~seed ~n ~l2_sizes =
  Printf.sprintf "curve2:%s:%d:%d:%d:%Ld:%d:%s:%s" workload l1_size l1_assoc block seed n
    (sizes_key l2_sizes) Registry.generator_tag

let l1_key ~workload ~l1_size ~l1_assoc ~block ~policy ~seed ~n =
  Printf.sprintf "l1:%s:%d:%d:%d:%s:%Ld:%d:%s" workload l1_size l1_assoc block
    (policy_key policy) seed n Registry.generator_tag

(* Workload lists are length-prefixed before joining so the combined
   key of ["a+b"] can never alias that of ["a"; "b"] — "+" inside a
   name is no longer a separator once each element carries its own
   length. *)
let combined_workloads_key workloads =
  String.concat "+"
    (List.map (fun w -> Printf.sprintf "%d:%s" (String.length w) w) workloads)

let warmup_fraction = Profile.warmup_fraction

type config = {
  l1_size : int;
  l1_assoc : int;
  l2 : (int * int) option;
  block : int;
  policy : Replacement.t;
}

let config ?(l1_assoc = 4) ?l2_size ?(l2_assoc = 8) ?(block = 64)
    ?(policy = Replacement.Lru) ~l1_size () =
  { l1_size; l1_assoc; l2 = Option.map (fun s -> (s, l2_assoc)) l2_size; block; policy }

let config_slot ~workload ~seed ~n c =
  match c.l2 with
  | None ->
    ( l1_cache,
      l1_key ~workload ~l1_size:c.l1_size ~l1_assoc:c.l1_assoc ~block:c.block
        ~policy:c.policy ~seed ~n )
  | Some (l2_size, l2_assoc) ->
    ( point_cache,
      sim_key ~workload ~l1_size:c.l1_size ~l2_size ~l1_assoc:c.l1_assoc ~l2_assoc
        ~block:c.block ~policy:c.policy ~seed ~n )

let point_of_pair (p : Cache.pair) =
  {
    l1_miss = Stats.miss_rate (Cache.stats p.l1);
    l2_local = Stats.miss_rate (Cache.stats p.l2);
    l2_global = Cache.l2_global_miss_rate p;
  }

(* a configuration's walk consumer, which runs each chunk through the
   [Cache.run] or [Cache.run_pair] kernel, and the point it reads off
   its caches once the walk is done *)
let start c () =
  let cache (size, assoc) =
    Cache.create ~size_bytes:size ~assoc ~block_bytes:c.block ~policy:c.policy ()
  in
  let l1 = cache (c.l1_size, c.l1_assoc) in
  let l2 = Option.map cache c.l2 in
  let feed, l2_rates =
    match l2 with
    | None -> (Cache.run l1, fun () -> (nan, nan))
    | Some l2 ->
      let p = Cache.pair ~l1 ~l2 in
      (Cache.run_pair p, fun () -> (Stats.miss_rate (Cache.stats l2), Cache.l2_global_miss_rate p))
  in
  let measure () =
    Cache.reset_stats l1;
    Option.iter Cache.reset_stats l2
  in
  ( { Gen.feed; measure },
    fun () ->
      Nmcache_engine.Metrics.incr "cachesim.simulations";
      Stats.flush_to_metrics ~prefix:"cachesim.l1" (Cache.stats l1);
      Option.iter (fun l2 -> Stats.flush_to_metrics ~prefix:"cachesim.l2" (Cache.stats l2)) l2;
      let l2_local, l2_global = l2_rates () in
      { l1_miss = Stats.miss_rate (Cache.stats l1); l2_local; l2_global } )

(* every configuration of one trace in one memoised walk; each one is
   an independent member with its own fault point and retry boundary *)
let simulate_configs ~seed ~workload ~n configs =
  Gen.walk_memoised ~stage:"simulate"
    ~gen:(fun () -> Registry.build ~seed workload)
    ~n
    (Array.map
       (fun c ->
         let table, key = config_slot ~workload ~seed ~n c in
         (table, key, start c))
       configs)

let simulate ?l1_assoc ?l2_assoc ?block ?policy ?(seed = Registry.default_seed) ~workload
    ~l1_size ~l2_size ~n () =
  (simulate_configs ~seed ~workload ~n
     [| config ?l1_assoc ?l2_assoc ?block ?policy ~l1_size ~l2_size () |]).(0)

(* The direct-simulation stage: the whole batch is one checkpoint slot
   of the [missrate.l1-sweep] task, since it is one walk. *)
let simulate_many ?(seed = Registry.default_seed) ~workload ~n configs =
  let configs = Array.of_list configs in
  let slot_key () =
    "walk1:"
    ^ String.concat ";"
        (Array.to_list
           (Array.map (fun c -> snd (config_slot ~workload ~seed ~n c)) configs))
  in
  let points =
    Sweep.map_array
      (Task.make ~name:"missrate.l1-sweep" ~key:slot_key (fun () ->
           simulate_configs ~seed ~workload ~n configs))
      [| () |]
  in
  Array.to_list points.(0)

module Stream_trace = Nmcache_cachesim.Stream_trace

(* The streamed twin of [simulate]: identical access sequence,
   identical warmup reset (statistics cleared exactly when the running
   access count reaches the warmup boundary), so rates are bitwise
   equal to [simulate]'s for a stream wrapping the same workload — at
   any chunk size.  Each chunk runs through [Cache.run_pair], split at
   the warm-up cut when the cut falls inside it.  Chunk boundaries
   double as checkpoint slots (Stream_trace.resumable_fold): the state
   is the pair plus the access count, and the salt names every
   consumer-side input, so a SIGKILLed run resumes byte-identically.
   Not memoised — the journal is the cross-process cache. *)
let simulate_stream ?(l1_assoc = 4) ?(l2_assoc = 8) ?(block = 64)
    ?(policy = Replacement.Lru) ?(warmup = true) ~stream ~l1_size ~l2_size () =
  let cache size assoc = Cache.create ~size_bytes:size ~assoc ~block_bytes:block ~policy () in
  let p = Cache.pair ~l1:(cache l1_size l1_assoc) ~l2:(cache l2_size l2_assoc) in
  let warm =
    if not warmup then 0
    else
      match Stream_trace.declared_length stream with
      | Some n -> int_of_float (warmup_fraction *. float_of_int n)
      | None -> 0
  in
  let salt =
    Printf.sprintf "simulate:%d:%d:%d:%d:%d:%s:%d" l1_size l2_size l1_assoc
      l2_assoc block (policy_key policy) warm
  in
  (* on a resumed run the pair that comes back is the journal's *)
  let p, (_ : int) =
    Stream_trace.resumable_fold ~salt stream ~init:(p, 0)
      ~f:(fun (p, processed) ~index:_ chunk ->
        let len = Array.length chunk and cut = warm - processed in
        if cut >= 0 && cut < len then begin
          Cache.run_pair p chunk 0 cut;
          Cache.reset_stats p.l1;
          Cache.reset_stats p.l2;
          Cache.run_pair p chunk cut (len - cut)
        end
        else Cache.run_pair p chunk 0 len;
        (p, processed + len))
  in
  Nmcache_engine.Metrics.incr "cachesim.simulations";
  Nmcache_engine.Metrics.incr "stream.simulations";
  Stats.flush_to_metrics ~prefix:"cachesim.l1" (Cache.stats p.l1);
  Stats.flush_to_metrics ~prefix:"cachesim.l2" (Cache.stats p.l2);
  point_of_pair p

type l2_curve = {
  workload : string;
  l1_size : int;
  l1_miss_rate : float;
  l2_sizes : int array;
  l2_local_rates : float array;
}

(* Derive the whole curve from a memoised L1-filtered profile: the
   first query per (workload, L1 config) performs the one measured
   traversal; every capacity — and any later change of [l2_sizes] — is
   pure arithmetic on the profile's suffix CDF.  The L2s the paper
   studies are ≥ 8-way, so the fully-associative stack condition is the
   same excellent approximation the per-point era used. *)
let curve_of_profile (p : Profile.t) ~l1_size ~l2_sizes =
  let caps = Array.map (fun s -> max 1 (s / p.Profile.block)) l2_sizes in
  {
    workload = p.Profile.workload;
    l1_size;
    l1_miss_rate = p.Profile.l1_miss_rate;
    l2_sizes = Array.copy l2_sizes;
    l2_local_rates = Profile.curve p ~capacities:caps;
  }

let l2_curve ?(l1_assoc = 4) ?(block = 64) ?(seed = Registry.default_seed) ~workload
    ~l1_size ~l2_sizes ~n () =
  curve_of_profile ~l1_size ~l2_sizes
    (Profile.l1_filtered ~l1_assoc ~block ~seed ~workload ~l1_size ~n ())

let avg_cache : l2_curve Memo.t = Memo.create ~name:"missrate.averaged" ()

let clear_cache () =
  Memo.clear point_cache;
  Memo.clear l1_cache;
  Memo.clear avg_cache;
  Profile.clear_cache ()

let averaged_l2_curve ?(l1_assoc = 4) ?(block = 64) ?(seed = Registry.default_seed)
    ~workloads ~l1_size ~l2_sizes ~n () =
  if workloads = [] then invalid_arg "Missrate.averaged_l2_curve: no workloads";
  let key =
    Printf.sprintf "avg:%s:%d:%d:%d:%Ld:%d:%s:%s" (combined_workloads_key workloads)
      l1_size l1_assoc block seed n (sizes_key l2_sizes) Registry.generator_tag
  in
  Memo.find_or_compute avg_cache key (fun () ->
      (* one independent profile build per workload — the engine fans
         them out and returns curves in workload order; the slot key
         makes each curve individually checkpointable *)
      let curves =
        Sweep.map_list
          (Task.make ~name:"missrate.l2-curve"
             ~key:(fun workload ->
               curve_key ~workload ~l1_size ~l1_assoc ~block ~seed ~n ~l2_sizes)
             (fun workload -> l2_curve ~l1_assoc ~block ~seed ~workload ~l1_size ~l2_sizes ~n ()))
          workloads
      in
      let k = float_of_int (List.length curves) in
      let l1_miss_rate = List.fold_left (fun acc c -> acc +. c.l1_miss_rate) 0.0 curves /. k in
      let l2_local_rates =
        Array.init (Array.length l2_sizes) (fun i ->
            List.fold_left (fun acc c -> acc +. c.l2_local_rates.(i)) 0.0 curves /. k)
      in
      {
        workload = String.concat "+" workloads;
        l1_size;
        l1_miss_rate;
        l2_sizes = Array.copy l2_sizes;
        l2_local_rates;
      })

type grid = {
  g_workloads : string list;
  g_l1_sizes : int array;
  g_l2_sizes : int array;
  g_averaged : l2_curve array;
  g_per_workload : l2_curve array array;
}

let grid ?(l1_assoc = 4) ?(block = 64) ?(seed = Registry.default_seed) ~workloads
    ~l1_sizes ~l2_sizes ~n () =
  if workloads = [] then invalid_arg "Missrate.grid: no workloads";
  (* one slot and one measured walk per workload: the walk builds the
     L1-filtered profile of every L1 size at once, and every L2
     capacity is derived from those profiles *)
  let rows =
    Sweep.map_list
      (Task.make ~name:"missrate.grid"
         ~key:(fun workload ->
           Printf.sprintf "grid3:%s:%s:%d:%d:%Ld:%d:%s:%s" workload (sizes_key l1_sizes)
             l1_assoc block seed n (sizes_key l2_sizes) Registry.generator_tag)
         (fun workload ->
           Profile.build_many ~seed ~workload ~n
             (Array.to_list
                (Array.map
                   (fun l1_size -> (Profile.L1_filtered { l1_size; l1_assoc }, block))
                   l1_sizes))
           |> List.map2 (fun l1_size p -> curve_of_profile p ~l1_size ~l2_sizes)
                (Array.to_list l1_sizes)
           |> Array.of_list))
      workloads
    |> Array.of_list
  in
  let g_per_workload = Array.mapi (fun i _ -> Array.map (fun row -> row.(i)) rows) l1_sizes in
  (* the averaged curves reuse the memoised profiles built above, so
     this adds no traversals and agrees bit-for-bit with direct
     [averaged_l2_curve] calls *)
  let g_averaged =
    Array.map
      (fun l1_size -> averaged_l2_curve ~l1_assoc ~block ~seed ~workloads ~l1_size ~l2_sizes ~n ())
      l1_sizes
  in
  { g_workloads = workloads; g_l1_sizes = Array.copy l1_sizes;
    g_l2_sizes = Array.copy l2_sizes; g_averaged; g_per_workload }

let l1_sweep ?(l1_assoc = 4) ?(block = 64) ?(policy = Replacement.Lru)
    ?(seed = Registry.default_seed) ~workload ~l1_sizes ~n () =
  match policy with
  | Replacement.Lru ->
    (* derived path: one raw-trace profile serves every L1 size (the
       stack condition is exact fully-associatively; the binomial
       set-associative correction is oracle-checked to ≤ 0.03).  The
       single-slot sweep keeps the profile build checkpointable. *)
    let prof_key = Profile.key ~workload ~kind:Profile.Raw ~block ~seed ~n in
    let profiles =
      Sweep.map_array
        (Task.make ~name:"missrate.profile"
           ~key:(fun _ -> "l1d:" ^ prof_key)
           (fun () -> Profile.raw ~block ~seed ~workload ~n ()))
        [| () |]
    in
    let p = profiles.(0) in
    Array.map
      (fun l1_size ->
        Profile.setassoc_miss_rate p ~capacity_blocks:(max 1 (l1_size / block))
          ~assoc:l1_assoc)
      l1_sizes
  | _ ->
    (* stack distances model LRU only: other policies simulate every
       size directly, all in one walk *)
    simulate_many ~seed ~workload ~n
      (Array.to_list
         (Array.map (fun l1_size -> config ~l1_assoc ~block ~policy ~l1_size ()) l1_sizes))
    |> List.map (fun p -> p.l1_miss)
    |> Array.of_list
