module Cache = Nmcache_cachesim.Cache
module Hierarchy = Nmcache_cachesim.Hierarchy
module Replacement = Nmcache_cachesim.Replacement
module Stats = Nmcache_cachesim.Stats
module Memo = Nmcache_engine.Memo
module Task = Nmcache_engine.Task
module Sweep = Nmcache_engine.Sweep
module Retry = Nmcache_engine.Retry
module Faultpoint = Nmcache_engine.Faultpoint

type point = {
  l1_miss : float;
  l2_local : float;
  l2_global : float;
}

(* process-wide, domain-safe memo tables; keys stringified for
   simplicity (they name every input the result depends on).  Whole
   miss-rate curves are derived from the stack-distance profiles in
   {!Profile}; only [simulate] and non-LRU L1 sweeps still walk the
   trace per configuration. *)
let point_cache : point Memo.t = Memo.create ~name:"missrate.points" ()
let l1_cache : float Memo.t = Memo.create ~name:"missrate.l1" ()

let policy_key = function
  | Replacement.Lru -> "lru"
  | Replacement.Fifo -> "fifo"
  | Replacement.Random s -> Printf.sprintf "random%d" s
  | Replacement.Plru -> "plru"

(* The memo keys double as checkpoint slot keys for the sweep tasks
   below, so they must (and do) name every input the result depends
   on.  Prefixes are versioned ("curve2", "l1d") where this PR changed
   what a slot means, so stale journals from the per-point era can
   never alias a derived result. *)
let sim_key ~workload ~l1_size ~l2_size ~l1_assoc ~l2_assoc ~block ~policy ~seed ~n =
  Printf.sprintf "sim:%s:%d:%d:%d:%d:%d:%s:%Ld:%d" workload l1_size l2_size l1_assoc
    l2_assoc block (policy_key policy) seed n

let curve_key ~workload ~l1_size ~l1_assoc ~block ~seed ~n ~l2_sizes =
  let sizes_key = String.concat "," (Array.to_list (Array.map string_of_int l2_sizes)) in
  Printf.sprintf "curve2:%s:%d:%d:%d:%Ld:%d:%s" workload l1_size l1_assoc block seed n
    sizes_key

let l1_key ~workload ~l1_size ~l1_assoc ~block ~policy ~seed ~n =
  Printf.sprintf "l1:%s:%d:%d:%d:%s:%Ld:%d" workload l1_size l1_assoc block
    (policy_key policy) seed n

(* Workload lists are length-prefixed before joining so the combined
   key of ["a+b"] can never alias that of ["a"; "b"] — "+" inside a
   name is no longer a separator once each element carries its own
   length. *)
let combined_workloads_key workloads =
  String.concat "+"
    (List.map (fun w -> Printf.sprintf "%d:%s" (String.length w) w) workloads)

let warmup_fraction = Profile.warmup_fraction

let simulate ?(l1_assoc = 4) ?(l2_assoc = 8) ?(block = 64) ?(policy = Replacement.Lru)
    ?(seed = Registry.default_seed) ~workload ~l1_size ~l2_size ~n () =
  let key = sim_key ~workload ~l1_size ~l2_size ~l1_assoc ~l2_assoc ~block ~policy ~seed ~n in
  Memo.find_or_compute point_cache key (fun () ->
      (* inside the memoised compute: an injected fault exercises the
         Pending-cleanup path (waiters retry, hit the same key-
         deterministic fault, and fail identically at any --jobs).
         The retry boundary sits inside the memo too, so a transient
         injection is recovered before any waiter sees it. *)
      Retry.run ~stage:"simulate" ~key (fun ~attempt ~last:_ ->
          Faultpoint.hit ~attempt ~point:"simulate" ~key ();
          let gen = Registry.build ~seed workload in
          let l1 = Cache.create ~size_bytes:l1_size ~assoc:l1_assoc ~block_bytes:block ~policy () in
          let l2 = Cache.create ~size_bytes:l2_size ~assoc:l2_assoc ~block_bytes:block ~policy () in
          let h = Hierarchy.create ~l1 ~l2 in
          let warm = int_of_float (warmup_fraction *. float_of_int n) in
          let feed addr write = ignore (Hierarchy.access h addr ~write) in
          Gen.iter ~stage:"simulate" gen warm feed;
          Cache.reset_stats l1;
          Cache.reset_stats l2;
          Gen.iter ~stage:"simulate" gen (n - warm) feed;
          Nmcache_engine.Metrics.incr "cachesim.simulations";
          Stats.flush_to_metrics ~prefix:"cachesim.l1" (Cache.stats l1);
          Stats.flush_to_metrics ~prefix:"cachesim.l2" (Cache.stats l2);
          {
            l1_miss = Hierarchy.l1_miss_rate h;
            l2_local = Hierarchy.l2_local_miss_rate h;
            l2_global = Hierarchy.l2_global_miss_rate h;
          }))

module Stream_trace = Nmcache_cachesim.Stream_trace

(* The streamed twin of [simulate]: identical access sequence,
   identical warmup reset (statistics cleared exactly when the running
   access count reaches the warmup boundary), so rates are bitwise
   equal to [simulate]'s for a stream wrapping the same workload — at
   any chunk size.  Chunk boundaries double as checkpoint slots
   (Stream_trace.resumable_fold): the state is the hierarchy plus the
   access count, and the salt names every consumer-side input, so a
   SIGKILLed run resumes byte-identically.  Not memoised — the journal
   is the cross-process cache. *)
let simulate_stream ?(l1_assoc = 4) ?(l2_assoc = 8) ?(block = 64)
    ?(policy = Replacement.Lru) ?(warmup = true) ~stream ~l1_size ~l2_size () =
  let l1 =
    Cache.create ~size_bytes:l1_size ~assoc:l1_assoc ~block_bytes:block ~policy ()
  in
  let l2 =
    Cache.create ~size_bytes:l2_size ~assoc:l2_assoc ~block_bytes:block ~policy ()
  in
  let h = Hierarchy.create ~l1 ~l2 in
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
  let h, (_ : int) =
    Stream_trace.resumable_fold ~salt stream ~init:(h, 0)
      ~f:(fun (h, processed) ~index:_ chunk ->
        for i = 0 to Array.length chunk - 1 do
          if processed + i = warm then begin
            Cache.reset_stats (Hierarchy.l1 h);
            Cache.reset_stats (Hierarchy.l2 h)
          end;
          let e = chunk.(i) in
          ignore
            (Hierarchy.access h (Stream_trace.addr e)
               ~write:(Stream_trace.is_write e))
        done;
        (h, processed + Array.length chunk))
  in
  Nmcache_engine.Metrics.incr "cachesim.simulations";
  Nmcache_engine.Metrics.incr "stream.simulations";
  Stats.flush_to_metrics ~prefix:"cachesim.l1" (Cache.stats (Hierarchy.l1 h));
  Stats.flush_to_metrics ~prefix:"cachesim.l2" (Cache.stats (Hierarchy.l2 h));
  {
    l1_miss = Hierarchy.l1_miss_rate h;
    l2_local = Hierarchy.l2_local_miss_rate h;
    l2_global = Hierarchy.l2_global_miss_rate h;
  }

type l2_curve = {
  workload : string;
  l1_size : int;
  l1_miss_rate : float;
  l2_sizes : int array;
  l2_local_rates : float array;
}

(* Derive the whole curve from the memoised L1-filtered profile: the
   first query per (workload, L1 config) performs the one measured
   traversal; every capacity — and any later change of [l2_sizes] — is
   pure arithmetic on the profile's suffix CDF.  The L2s the paper
   studies are ≥ 8-way, so the fully-associative stack condition is the
   same excellent approximation the per-point era used. *)
let l2_curve ?(l1_assoc = 4) ?(block = 64) ?(seed = Registry.default_seed) ~workload
    ~l1_size ~l2_sizes ~n () =
  let p = Profile.l1_filtered ~l1_assoc ~block ~seed ~workload ~l1_size ~n () in
  let caps = Array.map (fun s -> max 1 (s / block)) l2_sizes in
  {
    workload;
    l1_size;
    l1_miss_rate = p.Profile.l1_miss_rate;
    l2_sizes = Array.copy l2_sizes;
    l2_local_rates = Profile.curve p ~capacities:caps;
  }

let avg_cache : l2_curve Memo.t = Memo.create ~name:"missrate.averaged" ()

let clear_cache () =
  Memo.clear point_cache;
  Memo.clear l1_cache;
  Memo.clear avg_cache;
  Profile.clear_cache ()

let averaged_l2_curve ?(l1_assoc = 4) ?(block = 64) ?(seed = Registry.default_seed)
    ~workloads ~l1_size ~l2_sizes ~n () =
  if workloads = [] then invalid_arg "Missrate.averaged_l2_curve: no workloads";
  let sizes_key = String.concat "," (Array.to_list (Array.map string_of_int l2_sizes)) in
  let key =
    Printf.sprintf "avg:%s:%d:%d:%d:%Ld:%d:%s" (combined_workloads_key workloads) l1_size
      l1_assoc block seed n sizes_key
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
  let wl = Array.of_list workloads in
  let pairs =
    Array.concat
      (Array.to_list
         (Array.map (fun l1_size -> Array.map (fun w -> (w, l1_size)) wl) l1_sizes))
  in
  (* exactly one measured traversal per (workload, L1 size): the whole
     workload × L1 plane fans out at once, and every L2 capacity is
     derived from the resulting profiles *)
  let curves =
    Sweep.map_array
      (Task.make ~name:"missrate.grid"
         ~key:(fun (workload, l1_size) ->
           curve_key ~workload ~l1_size ~l1_assoc ~block ~seed ~n ~l2_sizes)
         (fun (workload, l1_size) ->
           l2_curve ~l1_assoc ~block ~seed ~workload ~l1_size ~l2_sizes ~n ()))
      pairs
  in
  let w_count = Array.length wl in
  let g_per_workload =
    Array.init (Array.length l1_sizes) (fun i -> Array.sub curves (i * w_count) w_count)
  in
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
    (* stack distances model LRU only: other policies keep the direct
       per-size simulation *)
    let slot_key l1_size = l1_key ~workload ~l1_size ~l1_assoc ~block ~policy ~seed ~n in
    Sweep.map_array
      (Task.make ~name:"missrate.l1-sweep" ~key:slot_key (fun l1_size ->
           Memo.find_or_compute l1_cache (slot_key l1_size) (fun () ->
               let gen = Registry.build ~seed workload in
               let l1 =
                 Cache.create ~size_bytes:l1_size ~assoc:l1_assoc ~block_bytes:block ~policy ()
               in
               let feed addr write = ignore (Cache.access l1 addr ~write) in
               let warm = int_of_float (warmup_fraction *. float_of_int n) in
               Gen.iter ~stage:"simulate" gen warm feed;
               Cache.reset_stats l1;
               Gen.iter ~stage:"simulate" gen (n - warm) feed;
               Nmcache_engine.Metrics.incr "cachesim.simulations";
               Stats.flush_to_metrics ~prefix:"cachesim.l1" (Cache.stats l1);
               Stats.miss_rate (Cache.stats l1))))
      l1_sizes
