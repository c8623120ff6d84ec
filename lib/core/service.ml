(* The serve protocol (see the .mli for the contract).

   Layering: Server owns lines/batches/drain, Service owns meaning —
   parsing, validation, admission bounds, the store-backed answer
   path, breaker bookkeeping and response rendering.  Everything that
   mutates cross-request state (breaker cells, the nearest-optimum
   index, request counters) happens in the settle thunk the serve loop
   runs sequentially in request order: the handler body itself only
   reads shared state, besides the store and the claims that make one
   request compute each store key, so responses are byte-identical at
   any pool width. *)

open Nmcache_engine
module Config = Nmcache_geometry.Config
module Component = Nmcache_geometry.Component
module Scheme = Nmcache_opt.Scheme
module Missrate = Nmcache_workload.Missrate
module Registry = Nmcache_workload.Registry
module Amat = Nmcache_energy.Amat
module Units = Nmcache_physics.Units

let serve_schema_version = 1

(* --- serve-level errors ---------------------------------------------- *)

(* The error taxonomy is Fault.kind plus three serve-level kinds that
   have no place in the numeric stack: bad_request, overloaded,
   circuit_open. *)
type serve_error = { e_kind : string; e_stage : string; e_detail : string }

exception Reject of serve_error

let reject ~kind ~stage fmt =
  Printf.ksprintf
    (fun d -> raise (Reject { e_kind = kind; e_stage = stage; e_detail = d }))
    fmt

let bad_request ~stage fmt = reject ~kind:"bad_request" ~stage fmt
let overloaded ~stage fmt = reject ~kind:"overloaded" ~stage fmt

let redact (f : Fault.t) =
  match f.kind with
  | Fault.Crashed ->
    (* keep only the exception constructor: raw exception text can
       carry local filesystem paths (Sys_error, Unix_error, ...) *)
    let d = f.detail in
    let n = String.length d in
    let stop = ref n in
    String.iteri
      (fun i c ->
        if !stop = n && (c = '(' || c = ' ' || c = '"' || c = '/') then stop := i)
      d;
    let tok = String.sub d 0 !stop in
    { f with detail = (if tok = "" then "exception" else tok) }
  | _ -> f

let of_fault (f : Fault.t) =
  let f = redact f in
  { e_kind = Fault.kind_name f.kind; e_stage = f.stage; e_detail = f.detail }

(* --- state ----------------------------------------------------------- *)

(* one cached optimisation result, indexed for nearest-neighbour
   degraded answers *)
type opt_params = {
  p_scheme : string;
  p_size_kb : int;
  p_assoc : int;
  p_block : int;
  p_out : int;
  p_budget_ps : float;
}

type index_entry = { e_params : opt_params; e_result : string }

type t = {
  ctx : Context.t;
  fingerprint : string;
  search_key : string;
  store : Store.t option;
  brk : Breaker.t;
  queue : int;
  jobs : int;
  max_points : int;
  max_n : int;
  started : float;
  stats_lock : Mutex.t;
  mutable ok_count : int;
  mutable error_count : int;
  mutable degraded_count : int;
  index_lock : Mutex.t;
  (* family (scheme|assoc|block|out) -> cached optima, settle-phase
     mutations only *)
  index : (string, index_entry list ref) Hashtbl.t;
  claim_lock : Mutex.t;
  released : Condition.t;
  (* store keys ([ns]\x00[key]) a request is computing now *)
  claimed : (string, unit) Hashtbl.t;
}

let breaker t = t.brk
let requests_ok t = Mutex.protect t.stats_lock (fun () -> t.ok_count)
let requests_error t = Mutex.protect t.stats_lock (fun () -> t.error_count)
let requests_degraded t = Mutex.protect t.stats_lock (fun () -> t.degraded_count)

let note t outcome =
  Mutex.protect t.stats_lock (fun () ->
      match outcome with
      | `Ok -> t.ok_count <- t.ok_count + 1
      | `Error -> t.error_count <- t.error_count + 1
      | `Degraded -> t.degraded_count <- t.degraded_count + 1)

(* --- the nearest-optimum index --------------------------------------- *)

let family p =
  Printf.sprintf "%s|a=%d|b=%d|o=%d" p.p_scheme p.p_assoc p.p_block p.p_out

let index_add t p result =
  Mutex.protect t.index_lock (fun () ->
      let cell =
        match Hashtbl.find_opt t.index (family p) with
        | Some c -> c
        | None ->
          let c = ref [] in
          Hashtbl.replace t.index (family p) c;
          c
      in
      let same e =
        e.e_params.p_size_kb = p.p_size_kb
        && e.e_params.p_budget_ps = p.p_budget_ps
      in
      if not (List.exists same !cell) then
        cell := { e_params = p; e_result = result } :: !cell)

(* distance: capacity first (log scale), then budget; ties broken by
   (size, budget) so the winner is unique and deterministic *)
let nearest t p =
  Mutex.protect t.index_lock (fun () ->
      match Hashtbl.find_opt t.index (family p) with
      | None -> None
      | Some cell ->
        let rank e =
          ( Float.abs
              (Float.log2 (float_of_int e.e_params.p_size_kb)
              -. Float.log2 (float_of_int p.p_size_kb)),
            Float.abs (e.e_params.p_budget_ps -. p.p_budget_ps),
            e.e_params.p_size_kb,
            e.e_params.p_budget_ps )
        in
        List.fold_left
          (fun best e ->
            match best with
            | None -> Some e
            | Some b -> if rank e < rank b then Some e else best)
          None !cell)

(* --- store keys ------------------------------------------------------ *)

(* Optimize and miss-curve records hold the rendered bytes of their
   answer's [result] object: an [optimize.r1] value is an
   [opt_params * string], a [curve.r1] value a [string].  A
   [model.r2] value is a [Fitted_cache.t], which embeds the
   [Cache_model.t] it was fitted on.  [Store.lookup] unmarshals at
   whatever type it is asked for, so a new value format takes a new
   namespace name, and the ["optimize"], ["curve"] and ["model"]
   records of older stores are never read. *)
let optimize_ns = "optimize.r1"
let curve_ns = "curve.r1"
let model_ns = "model.r2"

(* a fit and an optimum are keyed by what they depend on, a miss
   curve by the whole context *)
let model_key t config = Context.fit_key t.ctx config

let optimize_key t p =
  Printf.sprintf "%s|s=%d|a=%d|b=%d|o=%d|bud=%.6f|%s" p.p_scheme p.p_size_kb
    p.p_assoc p.p_block p.p_out p.p_budget_ps t.search_key

let curve_key t ~workload ~l1_kb ~assoc ~block ~n ~seed ~l2_kb =
  Printf.sprintf "%s|l1=%d|a=%d|b=%d|n=%d|seed=%Ld|l2=%s|%s" workload l1_kb
    assoc block n seed
    (String.concat "," (List.map string_of_int l2_kb))
    t.fingerprint

(* --- lifecycle ------------------------------------------------------- *)

(* a read that counts no store hit: seeding is not serving *)
let seed_index t =
  Option.iter
    (fun store ->
      Store.iter store ~ns:optimize_ns (fun ((p, result) : opt_params * string) ->
          index_add t p result))
    t.store

let create ?(max_points = 64) ?(max_n = 100_000_000) ?breaker ?store ~ctx ~queue
    ~jobs () =
  let brk =
    match breaker with Some b -> b | None -> Breaker.create ()
  in
  let t =
    {
      ctx;
      fingerprint = Context.fingerprint ctx;
      search_key = Context.search_key ctx ~grid:ctx.Context.grid;
      store;
      brk;
      queue;
      jobs;
      max_points;
      max_n;
      started = Unix.gettimeofday ();
      stats_lock = Mutex.create ();
      ok_count = 0;
      error_count = 0;
      degraded_count = 0;
      index_lock = Mutex.create ();
      index = Hashtbl.create 16;
      claim_lock = Mutex.create ();
      released = Condition.create ();
      claimed = Hashtbl.create 16;
    }
  in
  seed_index t;
  t

(* --- rendering ------------------------------------------------------- *)

let response_head =
  Printf.sprintf {|{"serve_schema_version":%d,"id":|} serve_schema_version

(* The one response writer: the schema version, the echoed id, then
   [field] set to [body], an object already rendered to bytes — a
   stored result is spliced in as it is. *)
let splice ~id ?degraded_from ~field body =
  let b = Buffer.create (String.length response_head + String.length body + 64) in
  Buffer.add_string b response_head;
  Json.to_buffer b id;
  (match degraded_from with
  | None -> ()
  | Some from ->
    Buffer.add_string b {|,"degraded":true,"degraded_from":|};
    Json.to_buffer b (Json.String from));
  Buffer.add_string b ",\"";
  Buffer.add_string b field;
  Buffer.add_string b "\":";
  Buffer.add_string b body;
  Buffer.add_char b '}';
  Buffer.contents b

let respond ~id ?degraded_from result =
  splice ~id ?degraded_from ~field:"result" result

let error_line ~id e =
  splice ~id ~field:"error"
    (Json.to_string
       (Json.Obj
          [
            ("kind", Json.String e.e_kind);
            ("stage", Json.String e.e_stage);
            ("detail", Json.String e.e_detail);
          ]))

let crash_response ~line:_ fault = error_line ~id:Json.Null (of_fault fault)

let overlong_response () =
  error_line ~id:Json.Null
    {
      e_kind = "overloaded";
      e_stage = "serve.admission";
      e_detail =
        Printf.sprintf "request line exceeds %d bytes" Server.max_line_bytes;
    }

let shed_response () =
  (* load shedding: connection cap or global queue exhausted — an
     explicit, deterministic refusal instead of unbounded buffering *)
  error_line ~id:Json.Null
    {
      e_kind = "overloaded";
      e_stage = "serve.admission";
      e_detail = "server at capacity; retry later";
    }

(* --- request parsing ------------------------------------------------- *)

let str_field j name =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some v -> (
    match Json.to_str v with
    | Some s -> Some s
    | None -> bad_request ~stage:"serve.validate" "field %S must be a string" name)

let int_field j name =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some v -> (
    match Json.to_int v with
    | Some i -> Some i
    | None ->
      bad_request ~stage:"serve.validate" "field %S must be an integer" name)

let float_field j name =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some v -> (
    match Json.to_float v with
    | Some f -> Some f
    | None -> bad_request ~stage:"serve.validate" "field %S must be a number" name)

let req_float j name =
  match float_field j name with
  | Some f -> f
  | None -> bad_request ~stage:"serve.validate" "missing required field %S" name

let req_str j name =
  match str_field j name with
  | Some s -> s
  | None -> bad_request ~stage:"serve.validate" "missing required field %S" name

(* --- the store-backed answer path ------------------------------------ *)

(* faults that count toward a breaker trip: the compute stack is
   misbehaving.  Out_of_domain is the query's fault, not the stack's. *)
let breaker_counts (k : Fault.kind) =
  match k with
  | Fault.Fit_diverged | Fault.Singular_system | Fault.Non_finite
  | Fault.Injected | Fault.Crashed | Fault.Timed_out ->
    true
  | Fault.Out_of_domain -> false

let observe_elapsed name t0 =
  Metrics.observe name ((Unix.gettimeofday () -. t0) *. 1e6)

let lookup t ~ns ~key =
  match t.store with None -> None | Some store -> Store.lookup store ~ns ~key

let claim t k =
  Mutex.protect t.claim_lock (fun () ->
      while Hashtbl.mem t.claimed k do
        Condition.wait t.released t.claim_lock
      done;
      Hashtbl.replace t.claimed k ())

let release t k =
  Mutex.protect t.claim_lock (fun () ->
      Hashtbl.remove t.claimed k;
      Condition.broadcast t.released)

type 'a answer = Warm of 'a | Cold of 'a | Refused

(* The one path from a store key to its value.  A stored value is a
   warm answer and takes no claim.  A miss that [admit] lets compute
   claims the key, so concurrent requests for one key compute it once:
   a request that finds the key claimed waits for its owner, then looks
   again.  The owner computes under the deadline, stores the value and
   releases the key; a compute that raises releases it too, and a
   waiter computes in its turn. *)
let answer ?(admit = fun () -> true) t ~ns ~key compute =
  match lookup t ~ns ~key with
  | Some v -> Warm v
  | None when not (admit ()) -> Refused
  | None -> (
    let k = ns ^ "\x00" ^ key in
    claim t k;
    Fun.protect ~finally:(fun () -> release t k) @@ fun () ->
    match t.store with
    | Some store when Store.mem store ~ns ~key -> Warm (Option.get (lookup t ~ns ~key))
    | _ ->
      let v = Deadline.with_root compute in
      Option.iter (fun store -> Store.add store ~ns ~key v) t.store;
      Cold v)

let fitted_model t config =
  match answer t ~ns:model_ns ~key:(model_key t config) (fun () -> Context.fitted t.ctx config) with
  | Warm m | Cold m -> m
  | Refused -> assert false (* nothing refuses without [admit] *)

(* A handler's answer: its response line and settle thunk.  [bkey]
   names the request's breaker cell, [result] the rendered bytes of an
   answer, [degrade] the answer to a request the breaker deflects, and
   [cold] the settle-phase work of a computed answer. *)
let respond_answer ?(degrade = fun () -> None) ?(cold = ignore) t ~t0 ~id ~bkey ~ns ~key
    ~result compute =
  match answer t ~ns ~key ~admit:(fun () -> Breaker.admit t.brk ~key:(bkey ())) compute with
  | Warm v ->
    observe_elapsed "serve.warm_us" t0;
    (respond ~id (result v), fun () -> note t `Ok)
  | Cold v ->
    observe_elapsed "serve.cold_us" t0;
    ( respond ~id (result v),
      fun () ->
        Breaker.record t.brk ~key:(bkey ()) ~ok:true;
        cold v;
        note t `Ok )
  | Refused -> (
    let bkey = bkey () in
    let deflected outcome () =
      Breaker.record t.brk ~key:bkey ~ok:false;
      note t outcome
    in
    match degrade () with
    | Some (from, body) -> (respond ~id ~degraded_from:from body, deflected `Degraded)
    | None ->
      ( error_line ~id
          {
            e_kind = "circuit_open";
            e_stage = "serve.breaker";
            e_detail = Printf.sprintf "%s cooling down, nothing cached to degrade to" bkey;
          },
        deflected `Error ))
  | exception Fault.Fault f ->
    Fault.record f;
    ( error_line ~id (of_fault f),
      fun () ->
        if breaker_counts f.Fault.kind then Breaker.record t.brk ~key:(bkey ()) ~ok:false;
        note t `Error )

(* --- optimize -------------------------------------------------------- *)

let parse_optimize t j =
  let scheme_s = Option.value (str_field j "scheme") ~default:"I" in
  let scheme =
    match Scheme.of_name scheme_s with
    | Some s -> s
    | None ->
      bad_request ~stage:"serve.validate" "unknown scheme %S (want I, II or III)"
        scheme_s
  in
  let size_kb =
    Option.value (int_field j "size_kb") ~default:(t.ctx.Context.l1_size / 1024)
  in
  let assoc = Option.value (int_field j "assoc") ~default:t.ctx.Context.l1_assoc in
  let block =
    Option.value (int_field j "block_bytes") ~default:t.ctx.Context.block_bytes
  in
  let out = Option.value (int_field j "output_bits") ~default:64 in
  let budget_ps = req_float j "delay_budget_ps" in
  if not (Float.is_finite budget_ps) || budget_ps <= 0. then
    bad_request ~stage:"serve.validate" "delay_budget_ps must be finite and > 0";
  if size_kb < 1 then bad_request ~stage:"serve.validate" "size_kb must be >= 1";
  let config =
    try
      Config.make ~output_bits:out ~size_bytes:(size_kb * 1024) ~assoc
        ~block_bytes:block ()
    with Invalid_argument msg -> bad_request ~stage:"serve.validate" "%s" msg
  in
  let p =
    {
      p_scheme = Scheme.name scheme;
      p_size_kb = size_kb;
      p_assoc = assoc;
      p_block = block;
      p_out = out;
      p_budget_ps = budget_ps;
    }
  in
  (p, scheme, config)

let knob_json kind (k : Component.knob) =
  Json.Obj
    [
      ("component", Json.String (Component.kind_name kind));
      ("vth_v", Json.Float k.Component.vth);
      ("tox_a", Json.Float (Units.to_angstrom k.Component.tox));
    ]

let compute_optimize t p scheme config =
  let tables = Scheme.tables (fitted_model t config) ~grid:t.ctx.Context.grid in
  match Scheme.minimize tables ~scheme ~delay_budget:(Units.ps p.p_budget_ps) with
  | None ->
    Json.Obj
      [
        ("scheme", Json.String p.p_scheme);
        ("size_kb", Json.Int p.p_size_kb);
        ("feasible", Json.Bool false);
        ("fastest_access_ps", Json.Float (Units.to_ps (Scheme.fastest tables)));
      ]
  | Some r ->
    Json.Obj
      [
        ("scheme", Json.String p.p_scheme);
        ("size_kb", Json.Int p.p_size_kb);
        ("feasible", Json.Bool true);
        ("leak_w", Json.Float r.Scheme.leak_w);
        ("access_ps", Json.Float (Units.to_ps r.Scheme.access_time));
        ( "assignment",
          Json.List
            (List.map
               (fun kind ->
                 knob_json kind (Component.get r.Scheme.assignment kind))
               Component.all_kinds) );
      ]

let degraded_from p =
  Printf.sprintf "optimize scheme=%s size_kb=%d delay_budget_ps=%g" p.p_scheme
    p.p_size_kb p.p_budget_ps

let handle_optimize t ~t0 ~id j =
  let p, scheme, config = parse_optimize t j in
  respond_answer t ~t0 ~id
    ~bkey:(fun () -> Printf.sprintf "opt|%s|s=%d" (family p) p.p_size_kb)
    ~ns:optimize_ns ~key:(optimize_key t p) ~result:snd
    ~degrade:(fun () ->
      Option.map (fun e -> (degraded_from e.e_params, e.e_result)) (nearest t p))
    ~cold:(fun (p, result) -> index_add t p result)
    (fun () -> (p, Json.to_string (compute_optimize t p scheme config)))

(* --- miss_curve ------------------------------------------------------ *)

let handle_miss_curve t ~t0 ~id j =
  let workload = req_str j "workload" in
  if Registry.find workload = None then
    bad_request ~stage:"serve.validate" "unknown workload %S (see %s)" workload
      (String.concat ", " Registry.names);
  let l1_kb =
    Option.value (int_field j "l1_kb") ~default:(t.ctx.Context.l1_size / 1024)
  in
  let assoc = Option.value (int_field j "assoc") ~default:t.ctx.Context.l1_assoc in
  let block =
    Option.value (int_field j "block_bytes") ~default:t.ctx.Context.block_bytes
  in
  let n = Option.value (int_field j "n") ~default:t.ctx.Context.n_sim in
  let seed =
    match int_field j "seed" with
    | Some s -> Int64.of_int s
    | None -> t.ctx.Context.seed
  in
  let l2_kb =
    match Json.member "l2_kb" j with
    | None ->
      bad_request ~stage:"serve.validate" "missing required field \"l2_kb\""
    | Some v -> (
      match Json.to_list v with
      | None ->
        bad_request ~stage:"serve.validate"
          "field \"l2_kb\" must be a list of integers"
      | Some items ->
        List.map
          (fun item ->
            match Json.to_int item with
            | Some i when i >= 1 -> i
            | _ ->
              bad_request ~stage:"serve.validate"
                "field \"l2_kb\" must be a list of integers >= 1")
          items)
  in
  if l2_kb = [] then
    bad_request ~stage:"serve.validate" "field \"l2_kb\" must be non-empty";
  if l1_kb < 1 then bad_request ~stage:"serve.validate" "l1_kb must be >= 1";
  (* admission control: declared work is bounded before any of it runs *)
  if List.length l2_kb > t.max_points then
    overloaded ~stage:"serve.admission" "%d curve points requested, limit %d"
      (List.length l2_kb) t.max_points;
  if n < 1 || n > t.max_n then
    overloaded ~stage:"serve.admission" "n=%d outside [1, %d]" n t.max_n;
  let render (c : Missrate.l2_curve) =
    Json.Obj
      [
        ("workload", Json.String c.Missrate.workload);
        ("l1_kb", Json.Int l1_kb);
        ("m1", Json.Float c.Missrate.l1_miss_rate);
        ( "points",
          Json.List
            (List.init
               (Array.length c.Missrate.l2_sizes)
               (fun i ->
                 Json.Obj
                   [
                     ("l2_kb", Json.Int (c.Missrate.l2_sizes.(i) / 1024));
                     ("m2", Json.Float c.Missrate.l2_local_rates.(i));
                   ])) );
      ]
  in
  respond_answer t ~t0 ~id
    ~bkey:(fun () -> Printf.sprintf "curve|%s|l1=%d|a=%d|b=%d" workload l1_kb assoc block)
    ~ns:curve_ns ~key:(curve_key t ~workload ~l1_kb ~assoc ~block ~n ~seed ~l2_kb)
    ~result:Fun.id
    (fun () ->
      Json.to_string
        (render
           (Missrate.l2_curve ~l1_assoc:assoc ~block ~seed ~workload
              ~l1_size:(l1_kb * 1024)
              ~l2_sizes:(Array.of_list (List.map (fun kb -> kb * 1024) l2_kb))
              ~n ())))

(* --- amat / health --------------------------------------------------- *)

let handle_amat ~id j =
  let t_l1 = req_float j "t_l1_ps" in
  let t_l2 = req_float j "t_l2_ps" in
  let t_mem = req_float j "t_mem_ps" in
  let m1 = req_float j "m1" in
  let m2 = req_float j "m2" in
  let amat =
    try Amat.two_level ~t_l1 ~t_l2 ~t_mem ~m1 ~m2
    with Invalid_argument msg -> bad_request ~stage:"serve.amat" "%s" msg
  in
  (respond ~id (Json.to_string (Json.Obj [ ("amat_ps", Json.Float amat) ])), `Ok)

let state_json (st : Breaker.state) =
  match st with
  | Breaker.Closed -> [ ("state", Json.String "closed") ]
  | Breaker.Half_open -> [ ("state", Json.String "half_open") ]
  | Breaker.Open r ->
    [ ("state", Json.String "open"); ("cooldown", Json.Int r) ]

let health_json t =
  let ok, err, deg =
    Mutex.protect t.stats_lock (fun () ->
        (t.ok_count, t.error_count, t.degraded_count))
  in
  Json.Obj
    [
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
      ("pid", Json.Int (Unix.getpid ()));
      ("jobs", Json.Int t.jobs);
      ("queue", Json.Int t.queue);
      ("inflight", Json.Int (Server.inflight ()));
      ( "requests",
        Json.Obj
          [
            ("ok", Json.Int ok);
            ("errors", Json.Int err);
            ("degraded", Json.Int deg);
          ] );
      ( "connections",
        Json.Obj
          [
            ( "active",
              Json.Int
                (int_of_float
                   (Option.value ~default:0.
                      (Metrics.gauge_value "serve.active_connections"))) );
            ("shed_requests", Json.Int (Metrics.counter_value "serve.shed"));
            ("shed_conns", Json.Int (Metrics.counter_value "serve.shed_conns"));
            ("dropped", Json.Int (Metrics.counter_value "serve.conn_dropped"));
          ] );
      ( "store",
        match t.store with
        | None -> Json.Null
        | Some s ->
          Json.Obj
            [
              ("path", Json.String (Store.path s));
              ("entries", Json.Int (Store.entries s));
              ("bytes", Json.Int (Store.bytes s));
              ("replayed", Json.Int (Store.replayed s));
              ("appended", Json.Int (Store.appended s));
              ("served", Json.Int (Store.served s));
              ("segment_version", Json.Int (Store.segment_version s));
              ("live_bytes", Json.Int (Store.live_bytes s));
              ("dead_records", Json.Int (Store.dead_records s));
              ("dead_bytes", Json.Int (Store.dead_bytes s));
            ] );
      ( "breakers",
        Json.List
          (List.map
             (fun (key, st) ->
               Json.Obj (("key", Json.String key) :: state_json st))
             (Breaker.tripped_keys t.brk)) );
    ]

(* --- dispatch -------------------------------------------------------- *)

let tag_of ~id j =
  match str_field j "tag" with
  | Some s -> s
  | None -> ( match id with Json.String s -> s | other -> Json.to_string other)

let handle_request t ~t0 ~id j =
  try
    let op = req_str j "op" in
    let tag = tag_of ~id j in
    (* the poison point: chaos harnesses arm serve.request by tag and
       the marked requests fail here — before any compute — whatever
       the pool width *)
    Faultpoint.hit ~point:"serve.request" ~key:tag ();
    match op with
    | "optimize" -> handle_optimize t ~t0 ~id j
    | "miss_curve" -> handle_miss_curve t ~t0 ~id j
    | "amat" ->
      let line, outcome = handle_amat ~id j in
      (line, fun () -> note t outcome)
    | "health" -> (respond ~id (Json.to_string (health_json t)), fun () -> note t `Ok)
    | other ->
      bad_request ~stage:"serve.validate"
        "unknown op %S (want optimize, miss_curve, amat or health)" other
  with
  | Reject e -> (error_line ~id e, fun () -> note t `Error)
  | Fault.Fault f ->
    Fault.record f;
    (error_line ~id (of_fault f), fun () -> note t `Error)
  | e ->
    let f = Fault.of_exn ~stage:"serve.request" e in
    Fault.record f;
    (error_line ~id (of_fault f), fun () -> note t `Error)

let handle_line t line =
  let t0 = Unix.gettimeofday () in
  let result =
    match Json.parse line with
    | Error msg ->
      ( error_line ~id:Json.Null
          {
            e_kind = "bad_request";
            e_stage = "serve.parse";
            e_detail = "malformed JSON: " ^ msg;
          },
        fun () -> note t `Error )
    | Ok (Json.Obj _ as j) ->
      let id = Option.value (Json.member "id" j) ~default:Json.Null in
      handle_request t ~t0 ~id j
    | Ok _ ->
      ( error_line ~id:Json.Null
          {
            e_kind = "bad_request";
            e_stage = "serve.parse";
            e_detail = "request must be a JSON object";
          },
        fun () -> note t `Error )
  in
  observe_elapsed "serve.request_us" t0;
  result

let handler t ~line = handle_line t line
