(* Serve suite: single-writer lock files, the persistent store (torn
   tails, fresh opens), circuit breakers, the generic serve loop, the
   protocol handler (validation, admission, redaction, poison
   injection, breaker degradation) and the kill-and-restart chaos
   gate.

   The faultpoint configuration, retry policy and drain flag are
   process-wide; every test that arms one disarms it in a finally. *)

module Json = Nmcache_engine.Json
module Fault = Nmcache_engine.Fault
module Faultpoint = Nmcache_engine.Faultpoint
module Lockfile = Nmcache_engine.Lockfile
module Store = Nmcache_engine.Store
module Breaker = Nmcache_engine.Breaker
module Server = Nmcache_engine.Server
module Pool = Nmcache_engine.Pool
module Service = Core.Service

let tmp_counter = ref 0

let tmpdir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ppserve-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* a PID guaranteed dead: a reaped child of ours *)
let dead_pid () =
  let pid =
    Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout Unix.stderr
  in
  ignore (Unix.waitpid [] pid);
  pid

let member_str name j =
  Option.bind (Json.member name j) Json.to_str

let error_kind line =
  match Json.parse line with
  | Ok j -> Option.bind (Json.member "error" j) (member_str "kind")
  | Error _ -> None

let quick_ctx = lazy (Core.Context.quick ())

let make_service ?max_points ?max_n ?breaker ?store () =
  Service.create ?max_points ?max_n ?breaker ?store ~ctx:(Lazy.force quick_ctx)
    ~queue:8 ~jobs:1 ()

(* handle a line AND run its settle thunk, as the serve loop would *)
let ask service line =
  let resp, settle = Service.handle_line service line in
  settle ();
  resp

(* --- lockfile ---------------------------------------------------------- *)

let test_lockfile_conflict () =
  let dir = tmpdir () in
  let path = Filename.concat dir "x.lock" in
  let l = Lockfile.acquire ~path in
  Alcotest.(check (option int))
    "holder is us" (Some (Unix.getpid ())) (Lockfile.holder_pid ~path);
  (match Lockfile.acquire ~path with
  | _ -> Alcotest.fail "second acquire must raise Locked"
  | exception Lockfile.Locked { pid; path = p } ->
    Alcotest.(check int) "locked by our pid" (Unix.getpid ()) pid;
    Alcotest.(check string) "lock path reported" path p);
  Lockfile.release l;
  Alcotest.(check (option int)) "released" None (Lockfile.holder_pid ~path);
  let l2 = Lockfile.acquire ~path in
  Lockfile.release l2;
  Lockfile.release l2 (* idempotent *)

let test_lockfile_stale_broken () =
  let dir = tmpdir () in
  let path = Filename.concat dir "x.lock" in
  write_file path (Printf.sprintf "%d\n" (dead_pid ()));
  (* the holder is dead: acquire must break the stale lock and win *)
  let l = Lockfile.acquire ~path in
  Alcotest.(check (option int))
    "stale lock broken and re-owned" (Some (Unix.getpid ()))
    (Lockfile.holder_pid ~path);
  Lockfile.release l

(* --- store ------------------------------------------------------------- *)

let test_store_roundtrip () =
  let dir = tmpdir () in
  let s = Store.open_ ~dir in
  Store.add s ~ns:"model" ~key:"a" (1, "one");
  Store.add s ~ns:"curve" ~key:"a" [| 0.5; 0.25 |];
  Store.add s ~ns:"model" ~key:"b" (2, "two");
  (* first write wins: a replayed stream can never corrupt an entry *)
  Store.add s ~ns:"model" ~key:"a" (99, "ninety-nine");
  Alcotest.(check (option (pair int string)))
    "namespaced lookup" (Some (1, "one"))
    (Store.lookup s ~ns:"model" ~key:"a");
  Alcotest.(check (option (array (float 1e-9))))
    "same key, other namespace" (Some [| 0.5; 0.25 |])
    (Store.lookup s ~ns:"curve" ~key:"a");
  Alcotest.(check int) "entries" 3 (Store.entries s);
  Alcotest.(check int) "appended" 3 (Store.appended s);
  Alcotest.(check (list string)) "keys sorted" [ "a"; "b" ] (Store.keys s ~ns:"model");
  Store.close s;
  (* reopen: everything replays, nothing is re-appended *)
  let s2 = Store.open_ ~dir in
  Alcotest.(check int) "replayed" 3 (Store.replayed s2);
  Alcotest.(check bool) "clean tail" false (Store.dropped_tail s2);
  Alcotest.(check (option (pair int string)))
    "first write survived replay" (Some (1, "one"))
    (Store.lookup s2 ~ns:"model" ~key:"a");
  Store.close s2

let test_store_corrupt_tail () =
  let dir = tmpdir () in
  let s = Store.open_ ~dir in
  Store.add s ~ns:"n" ~key:"good" 42;
  Store.close s;
  let path = Filename.concat dir Store.store_name in
  let clean = read_file path in
  (* a killed writer leaves a torn record: reopen must truncate it and
     keep every complete record *)
  write_file path (clean ^ "\x05\x00\x00\x00torn");
  let s2 = Store.open_ ~dir in
  Alcotest.(check bool) "tail dropped" true (Store.dropped_tail s2);
  Alcotest.(check (option int)) "good record kept" (Some 42)
    (Store.lookup s2 ~ns:"n" ~key:"good");
  Store.add s2 ~ns:"n" ~key:"after" 7;
  Store.close s2;
  let s3 = Store.open_ ~dir in
  Alcotest.(check int) "repaired journal replays fully" 2 (Store.replayed s3);
  Alcotest.(check bool) "tail clean after repair" false (Store.dropped_tail s3);
  Store.close s3

let test_store_open_fresh () =
  let dir = tmpdir () in
  let s = Store.open_ ~dir in
  Store.add s ~ns:"slot" ~key:"old" 1;
  Store.close s;
  let s = Store.open_fresh ~dir in
  Alcotest.(check int) "nothing replayed" 0 (Store.replayed s);
  Alcotest.(check (option int)) "old record not served" None
    (Store.lookup s ~ns:"slot" ~key:"old");
  Store.add s ~ns:"slot" ~key:"new" 2;
  Store.close s;
  (* discarded on disk, not merely skipped: a replaying open sees only
     the new journal *)
  let s = Store.open_ ~dir in
  Alcotest.(check (list string)) "only the new journal replays" [ "new" ]
    (Store.keys s ~ns:"slot");
  Store.close s

let test_store_single_writer () =
  let dir = tmpdir () in
  let s = Store.open_ ~dir in
  (match Store.open_ ~dir with
  | _ -> Alcotest.fail "second store on one directory must raise Locked"
  | exception Lockfile.Locked { pid; _ } ->
    Alcotest.(check int) "held by this process" (Unix.getpid ()) pid);
  Store.close s;
  let s2 = Store.open_ ~dir in
  Store.close s2

(* --- breaker ----------------------------------------------------------- *)

let test_breaker_state_machine () =
  let b = Breaker.create ~threshold:3 ~cooldown:2 () in
  let key = "k" in
  Alcotest.(check bool) "closed admits" true (Breaker.admit b ~key);
  Breaker.record b ~key ~ok:false;
  Breaker.record b ~key ~ok:false;
  Alcotest.(check bool) "under threshold still admits" true (Breaker.admit b ~key);
  Breaker.record b ~key ~ok:true;
  (* a success resets the count *)
  Breaker.record b ~key ~ok:false;
  Breaker.record b ~key ~ok:false;
  Breaker.record b ~key ~ok:false;
  (match Breaker.state b ~key with
  | Breaker.Open 2 -> ()
  | _ -> Alcotest.fail "third consecutive failure must trip to Open(cooldown)");
  Alcotest.(check bool) "open deflects" false (Breaker.admit b ~key);
  Breaker.record b ~key ~ok:false; (* deflected request ticks cooldown *)
  Breaker.record b ~key ~ok:false;
  (match Breaker.state b ~key with
  | Breaker.Half_open -> ()
  | _ -> Alcotest.fail "cooldown spent must reach Half_open");
  Alcotest.(check bool) "half-open admits the probe" true (Breaker.admit b ~key);
  Breaker.record b ~key ~ok:false;
  (match Breaker.state b ~key with
  | Breaker.Open 2 -> ()
  | _ -> Alcotest.fail "failed probe must re-trip");
  Breaker.record b ~key ~ok:false;
  Breaker.record b ~key ~ok:false;
  Breaker.record b ~key ~ok:true;
  (match Breaker.state b ~key with
  | Breaker.Closed -> ()
  | _ -> Alcotest.fail "successful probe must close");
  Alcotest.(check bool) "other keys unaffected" true (Breaker.admit b ~key:"other")

(* --- server loop ------------------------------------------------------- *)

(* run the loop over a file of request lines with a given handler *)
let serve_file ?(queue = 4) ~jobs ~handler lines =
  let dir = tmpdir () in
  let inp = Filename.concat dir "in.ndjson" in
  let outp = Filename.concat dir "out.ndjson" in
  write_file inp (String.concat "" (List.map (fun l -> l ^ "\n") lines));
  let input = Unix.openfile inp [ Unix.O_RDONLY ] 0 in
  let output = open_out_bin outp in
  let stats =
    Fun.protect
      ~finally:(fun () ->
        Unix.close input;
        close_out output)
      (fun () ->
        Server.serve ~queue ~pool:(Pool.create ~jobs) ~handler
          ~crash_response:(fun ~line:_ f ->
            "crash:" ^ Fault.kind_name f.Fault.kind)
          ~overlong_response:(fun () -> "overlong")
          ~input ~output ())
  in
  (stats, read_file outp)

let test_server_order_and_fault_isolation () =
  let handler ~line =
    if line = "boom" then failwith "kernel exploded"
    else (String.uppercase_ascii line, fun () -> ())
  in
  let lines = [ "alpha"; "boom"; "gamma"; "delta"; "boom"; "zeta" ] in
  let _, out1 = serve_file ~jobs:1 ~handler lines in
  let stats4, out4 = serve_file ~jobs:4 ~handler lines in
  Alcotest.(check string)
    "responses in request order, crashes isolated"
    "ALPHA\ncrash:crashed\nGAMMA\nDELTA\ncrash:crashed\nZETA\n" out1;
  Alcotest.(check string) "byte-identical at jobs 4" out1 out4;
  Alcotest.(check int) "all requests counted" 6 stats4.Server.requests;
  Alcotest.(check int) "all responses written" 6 stats4.Server.responses;
  Alcotest.(check bool) "EOF, not drain" false stats4.Server.drained

let test_server_settle_order () =
  (* settle thunks run in request order whatever the pool width: the
     deterministic seam breaker updates rely on *)
  let log = ref [] in
  let handler ~line = (line, fun () -> log := line :: !log) in
  let lines = List.init 20 (fun i -> Printf.sprintf "r%02d" i) in
  let _ = serve_file ~jobs:4 ~handler lines in
  Alcotest.(check (list string)) "settle order is request order" lines
    (List.rev !log)

let test_server_overlong_line () =
  let big = String.make (Server.max_line_bytes + 100) 'x' in
  let handler ~line = ("len:" ^ string_of_int (String.length line), fun () -> ())
  in
  let _, out = serve_file ~jobs:2 ~handler [ "short"; big; "after" ] in
  Alcotest.(check string)
    "overlong line rejected in place, stream continues"
    "len:5\noverlong\nlen:5\n" out

let test_server_drain_finishes_batch () =
  Server.reset_drain ();
  let handler ~line =
    if line = "drain-me" then Server.request_drain ();
    (line, fun () -> ())
  in
  let stats, out =
    serve_file ~queue:2 ~jobs:1 ~handler [ "a"; "drain-me"; "c"; "d"; "e" ]
  in
  Server.reset_drain ();
  Alcotest.(check string) "in-flight batch finished, rest unread" "a\ndrain-me\n"
    out;
  Alcotest.(check bool) "reported as drained" true stats.Server.drained

(* --- protocol ---------------------------------------------------------- *)

let test_protocol_validation () =
  let s = make_service () in
  (* every response, success or error, carries the schema version and
     echoes the id *)
  let r = ask s {|{"id":17,"op":"amat","t_l1_ps":500,"t_l2_ps":2000,"t_mem_ps":60000,"m1":0.05,"m2":0.3}|} in
  let j = Result.get_ok (Json.parse r) in
  Alcotest.(check (option int)) "schema version" (Some 1)
    (Option.bind (Json.member "serve_schema_version" j) Json.to_int);
  Alcotest.(check (option int)) "id echoed" (Some 17)
    (Option.bind (Json.member "id" j) Json.to_int);
  Alcotest.(check (option (float 1e-6))) "amat computed" (Some 1500.0)
    (Option.bind (Json.member "result" j) (fun r ->
         Option.bind (Json.member "amat_ps" r) Json.to_float));
  let expect_kind what kind line =
    Alcotest.(check (option string)) what (Some kind) (error_kind line)
  in
  expect_kind "unparseable line" "bad_request" (ask s "{nope");
  expect_kind "non-object request" "bad_request" (ask s "[1,2]");
  expect_kind "missing op" "bad_request" (ask s {|{"id":1}|});
  expect_kind "unknown op" "bad_request" (ask s {|{"id":1,"op":"frobnicate"}|});
  expect_kind "missing required field" "bad_request"
    (ask s {|{"id":1,"op":"optimize"}|});
  expect_kind "wrong field type" "bad_request"
    (ask s {|{"id":1,"op":"optimize","size_kb":"big","delay_budget_ps":2000}|});
  expect_kind "bad geometry" "bad_request"
    (ask s {|{"id":1,"op":"optimize","size_kb":17,"delay_budget_ps":2000}|});
  expect_kind "non-positive budget" "bad_request"
    (ask s {|{"id":1,"op":"optimize","size_kb":16,"delay_budget_ps":-5}|});
  expect_kind "unknown workload" "bad_request"
    (ask s {|{"id":1,"op":"miss_curve","workload":"nope","l2_kb":[256]}|});
  expect_kind "amat out of range" "bad_request"
    (ask s {|{"id":1,"op":"amat","t_l1_ps":500,"t_l2_ps":2000,"t_mem_ps":60000,"m1":1.5,"m2":0.3}|});
  Alcotest.(check int) "errors counted" 10 (Service.requests_error s)

let test_protocol_admission () =
  let s = make_service ~max_points:3 ~max_n:1_000_000 () in
  let over =
    ask s {|{"id":1,"op":"miss_curve","workload":"tpcc","l2_kb":[64,128,256,512]}|}
  in
  Alcotest.(check (option string)) "too many points" (Some "overloaded")
    (error_kind over);
  let too_long =
    ask s {|{"id":2,"op":"miss_curve","workload":"tpcc","l2_kb":[256],"n":2000000}|}
  in
  Alcotest.(check (option string)) "n beyond max_n" (Some "overloaded")
    (error_kind too_long);
  let ok =
    ask s {|{"id":3,"op":"miss_curve","workload":"tpcc","l1_kb":4,"l2_kb":[64,128],"n":50000}|}
  in
  (match Json.parse ok with
  | Ok j ->
    let points =
      Option.bind (Json.member "result" j) (fun r ->
          Option.bind (Json.member "points" r) Json.to_list)
    in
    Alcotest.(check (option int)) "within bounds computes" (Some 2)
      (Option.map List.length points)
  | Error e -> Alcotest.failf "miss_curve response unparseable: %s" e)

let test_protocol_health () =
  let dir = tmpdir () in
  let store = Store.open_ ~dir in
  let s = make_service ~store () in
  let r = ask s {|{"id":"h","op":"health"}|} in
  let j = Result.get_ok (Json.parse r) in
  let result = Option.get (Json.member "result" j) in
  Alcotest.(check (option int)) "pid" (Some (Unix.getpid ()))
    (Option.bind (Json.member "pid" result) Json.to_int);
  Alcotest.(check bool) "uptime present" true
    (Json.member "uptime_s" result <> None);
  let store_j = Option.get (Json.member "store" result) in
  Alcotest.(check (option string)) "store path" (Some (Store.path store))
    (member_str "path" store_j);
  Alcotest.(check bool) "breaker table present" true
    (Json.member "breakers" result <> None);
  Store.close store

let test_poison_by_tag () =
  (* arm the serve.request point for tag "poison": marked requests
     fail deterministically, everything else completes — and the whole
     exchange is byte-identical at any pool width *)
  Fun.protect ~finally:Faultpoint.clear (fun () ->
      (match Faultpoint.configure "serve.request=poison" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "bad spec: %s" e);
      let amat i tag =
        Printf.sprintf
          {|{"id":"q%d"%s,"op":"amat","t_l1_ps":500,"t_l2_ps":2000,"t_mem_ps":60000,"m1":0.05,"m2":0.3}|}
          i
          (if tag then {|,"tag":"poison"|} else "")
      in
      let lines = [ amat 0 false; amat 1 true; amat 2 false; amat 3 true ] in
      let run jobs =
        let s = make_service () in
        let handler = Service.handler s in
        serve_file ~jobs ~handler lines
      in
      let _, out1 = run 1 in
      let _, out4 = run 4 in
      Alcotest.(check string) "poison injection is jobs-invariant" out1 out4;
      let kinds = List.filter_map error_kind (String.split_on_char '\n' out1) in
      Alcotest.(check (list string))
        "exactly the tagged requests fail, as injected faults"
        [ "injected"; "injected" ] kinds)

let test_redaction () =
  let crashed detail =
    Fault.make ~kind:Fault.Crashed ~stage:"serve.request" detail
  in
  let f = Service.redact (crashed {|Sys_error("/secret/path/model.bin: boom")|}) in
  Alcotest.(check string) "constructor only" "Sys_error" f.Fault.detail;
  let f2 = Service.redact (crashed "/secret/leading/path") in
  Alcotest.(check string) "pathological detail still redacts" "exception"
    f2.Fault.detail;
  (* non-crashed details are deterministic by construction and pass through *)
  let inj = Fault.make ~kind:Fault.Injected ~stage:"serve.request" "poison" in
  Alcotest.(check string) "typed faults untouched" "poison"
    (Service.redact inj).Fault.detail;
  (* end to end: a handler that raises with a path in the message must
     not leak it through the crash boundary *)
  let handler ~line:_ = raise (Sys_error "/secret/path: boom") in
  let dir = tmpdir () in
  let inp = Filename.concat dir "in" in
  write_file inp "one\n";
  let input = Unix.openfile inp [ Unix.O_RDONLY ] 0 in
  let outp = Filename.concat dir "out" in
  let output = open_out_bin outp in
  let _ =
    Fun.protect
      ~finally:(fun () ->
        Unix.close input;
        close_out output)
      (fun () ->
        Server.serve ~pool:Pool.sequential ~handler
          ~crash_response:Service.crash_response
          ~overlong_response:Service.overlong_response ~input ~output ())
  in
  let out = read_file outp in
  Alcotest.(check (option string)) "classified as crashed" (Some "crashed")
    (error_kind (String.trim out));
  Alcotest.(check bool) "no path reaches the response" false
    (String.contains out '/')

let test_breaker_degrades_and_recovers () =
  (* threshold 3, cooldown 8 (the defaults): repeated fit faults on one
     config trip its breaker; during cooldown a neighbouring cached
     optimum is served degraded; after the cooldown the half-open probe
     (faults cleared) closes the breaker again *)
  let s = make_service () in
  let opt size_kb =
    Printf.sprintf
      {|{"id":"o%d","op":"optimize","scheme":"III","size_kb":%d,"delay_budget_ps":2500}|}
      size_kb size_kb
  in
  (* seed the nearest-optimum index with a healthy neighbour *)
  let seeded = ask s (opt 4) in
  Alcotest.(check (option string)) "neighbour computed" None (error_kind seeded);
  Fun.protect ~finally:Faultpoint.clear (fun () ->
      (match Faultpoint.configure "context.fit" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "bad spec: %s" e);
      for i = 1 to 3 do
        Alcotest.(check (option string))
          (Printf.sprintf "failure %d is an injected fault" i)
          (Some "injected") (error_kind (ask s (opt 8)))
      done;
      (* tripped: deflected to the nearest cached optimum, marked *)
      let degraded = ask s (opt 8) in
      let j = Result.get_ok (Json.parse degraded) in
      Alcotest.(check (option bool)) "degraded flag" (Some true)
        (match Json.member "degraded" j with
        | Some (Json.Bool b) -> Some b
        | _ -> None);
      (match member_str "degraded_from" j with
      | Some from ->
        Alcotest.(check bool) "names the neighbour" true
          (let re = "size_kb=4" in
           let len = String.length re in
           let n = String.length from in
           let rec scan i =
             i + len <= n && (String.sub from i len = re || scan (i + 1))
           in
           scan 0)
      | None -> Alcotest.fail "degraded answer must say where it came from"));
  (* burn the rest of the cooldown (7 more deflections) *)
  for _ = 1 to 7 do
    ignore (ask s (opt 8))
  done;
  (* half-open now, faults disarmed: the probe computes and closes *)
  let probe = ask s (opt 8) in
  Alcotest.(check (option string)) "probe recovers" None (error_kind probe);
  Alcotest.(check bool) "breaker closed again" true
    (Breaker.tripped_keys (Service.breaker s) = []);
  Alcotest.(check int) "degraded answers counted" 8 (Service.requests_degraded s)

let test_store_serves_warm_and_restart () =
  (* the same query answered cold, warm (same process) and warm after a
     restart (new service, same directory) must be byte-identical *)
  let dir = tmpdir () in
  let q =
    {|{"id":"w","op":"miss_curve","workload":"spec2000-mix","l1_kb":4,"l2_kb":[64,128],"n":50000}|}
  in
  let store = Store.open_ ~dir in
  let s = make_service ~store () in
  let cold = ask s q in
  let appended_after_cold = Store.appended store in
  let warm = ask s q in
  Alcotest.(check string) "warm hit byte-identical" cold warm;
  Alcotest.(check int) "warm hit did not re-append" appended_after_cold
    (Store.appended store);
  Store.close store;
  let store2 = Store.open_ ~dir in
  Alcotest.(check bool) "restart replays the curve" true (Store.replayed store2 > 0);
  let s2 = make_service ~store:store2 () in
  let restarted = ask s2 q in
  Alcotest.(check string) "restart replay byte-identical" cold restarted;
  Store.close store2

let replace_all ~sub ~by s =
  let n = String.length sub and m = String.length s in
  let b = Buffer.create m in
  let rec go i =
    if i > m - n then Buffer.add_string b (String.sub s i (m - i))
    else if String.sub s i n = sub then begin
      Buffer.add_string b by;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* A store written before the numerics tag joined the fingerprint keys
   its models and optima by the tagless fingerprint.  Served by the
   current code, every such record must miss: the query recomputes and
   appends fresh records.  The same records under the current keys hit,
   which shows the miss comes from the tag alone. *)
let test_store_stale_numerics_misses () =
  let q =
    {|{"id":"n","op":"optimize","scheme":"I","size_kb":8,"assoc":2,"block_bytes":64,"output_bits":64,"delay_budget_ps":2500}|}
  in
  let current = Core.Context.fingerprint (Lazy.force quick_ctx) in
  let tag = ":num=" ^ Core.Context.numerics_tag in
  Alcotest.(check bool) "the tag ends the fingerprint" true
    (String.ends_with ~suffix:tag current);
  let legacy = String.sub current 0 (String.length current - String.length tag) in
  let source = Store.open_ ~dir:(tmpdir ()) in
  let cold = ask (make_service ~store:source ()) q in
  let copy ~rekey =
    let store = Store.open_ ~dir:(tmpdir ()) in
    List.iter
      (fun ns ->
        List.iter
          (fun key ->
            match Store.lookup source ~ns ~key with
            | Some v -> Store.add store ~ns ~key:(rekey key) v
            | None -> ())
          (Store.keys source ~ns))
      [ "model"; "optimize" ];
    store
  in
  let answer store =
    let before = Store.appended store in
    let response = ask (make_service ~store ()) q in
    let appended = Store.appended store - before in
    Store.close store;
    (response, appended)
  in
  let stale, stale_appended = answer (copy ~rekey:(replace_all ~sub:current ~by:legacy)) in
  let warm, warm_appended = answer (copy ~rekey:Fun.id) in
  Store.close source;
  Alcotest.(check string) "stale store recomputes the same answer" cold stale;
  Alcotest.(check bool) "stale records missed, fresh ones appended" true (stale_appended > 0);
  Alcotest.(check string) "current store answers warm" cold warm;
  Alcotest.(check int) "current records hit" 0 warm_appended

(* --- kill-and-restart chaos gate --------------------------------------- *)

(* Child mode: re-executed with [serve_child_env] set to
   "store_dir:query_file:out_file", run the real serve loop over the
   query file with a ~20 ms per-request handicap so a SIGKILL lands
   mid-batch.  Must run before Alcotest so the child never spawns a
   domain. *)
let serve_child_env = "PPCACHE_TEST_SERVE_CHILD"

let serve_child_main spec : unit =
  match String.split_on_char ':' spec with
  | [ store_dir; query_file; out_file ] ->
    let store = Store.open_ ~dir:store_dir in
    let ctx = Core.Context.quick () in
    let service = Service.create ~store ~ctx ~queue:4 ~jobs:1 () in
    let input = Unix.openfile query_file [ Unix.O_RDONLY ] 0 in
    let output = open_out_bin out_file in
    let handler ~line =
      Unix.sleepf 0.08;
      Service.handle_line service line
    in
    let _ =
      Server.serve ~queue:4 ~pool:Pool.sequential ~handler
        ~crash_response:Service.crash_response
        ~overlong_response:Service.overlong_response ~input ~output ()
    in
    close_out output;
    Store.close store
  | _ -> failwith ("bad " ^ serve_child_env ^ " spec: " ^ spec)

let kill_restart_queries =
  [
    (* persisted almost immediately: the kill must land after at least
       one record is on disk *)
    {|{"id":"k0","op":"miss_curve","workload":"tpcc","l1_kb":4,"l2_kb":[64],"n":20000}|};
  ]
  @ List.init 30 (fun i ->
        Printf.sprintf
          {|{"id":"k%d","op":"amat","t_l1_ps":500,"t_l2_ps":2000,"t_mem_ps":60000,"m1":0.0%d,"m2":0.3}|}
          (i + 1)
          ((i mod 9) + 1))
  @ [
      {|{"id":"k31","op":"miss_curve","workload":"tpcc","l1_kb":4,"l2_kb":[64,128],"n":20000}|};
      {|{"id":"k32","op":"optimize","scheme":"III","size_kb":4,"delay_budget_ps":2500}|};
    ]

let test_kill_and_restart_serving () =
  let dir = tmpdir () in
  let store_dir = Filename.concat dir "store" in
  let query_file = Filename.concat dir "queries.ndjson" in
  let child_out = Filename.concat dir "child.out" in
  write_file query_file
    (String.concat "" (List.map (fun l -> l ^ "\n") kill_restart_queries));
  (* the uninterrupted reference: same queries, fresh store *)
  let ref_store = Store.open_ ~dir:(Filename.concat dir "ref-store") in
  let ref_service = Service.create ~store:ref_store ~ctx:(Lazy.force quick_ctx) ~queue:4 ~jobs:1 () in
  let expected =
    String.concat ""
      (List.map (fun l -> ask ref_service l ^ "\n") kill_restart_queries)
  in
  Store.close ref_store;
  (* SIGKILL the serving child mid-batch *)
  let env =
    Array.append (Unix.environment ())
      [| serve_child_env ^ "=" ^ store_dir ^ ":" ^ query_file ^ ":" ^ child_out |]
  in
  let child =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin Unix.stdout Unix.stderr
  in
  (* kill only once the child has demonstrably started answering — the
     per-request handicap guarantees plenty of unserved tail remains *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec await () =
    let written =
      try (Unix.stat child_out).Unix.st_size > 0 with Unix.Unix_error _ -> false
    in
    if written then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "serve child produced no output within 30 s"
    else begin
      Unix.sleepf 0.02;
      await ()
    end
  in
  await ();
  Unix.kill child Sys.sigkill;
  ignore (Unix.waitpid [] child);
  let partial = read_file child_out in
  Alcotest.(check bool) "child answered something before the kill" true
    (String.length partial > 0);
  Alcotest.(check bool) "child died mid-stream" true
    (String.length partial < String.length expected);
  (* every line the child did write matches the uninterrupted run *)
  Alcotest.(check bool) "no torn or divergent responses" true
    (String.length partial <= String.length expected
    && String.sub expected 0 (String.length partial) = partial);
  (* restart on the killed store: the dead child's lock must be broken,
     the journal replayed (torn tail dropped), and the full replay must
     be byte-identical to the uninterrupted run *)
  let store = Store.open_ ~dir:store_dir in
  Alcotest.(check bool) "killed run's records replayed" true
    (Store.replayed store > 0);
  let service = Service.create ~store ~ctx:(Lazy.force quick_ctx) ~queue:4 ~jobs:1 () in
  let replayed =
    String.concat ""
      (List.map (fun l -> ask service l ^ "\n") kill_restart_queries)
  in
  Alcotest.(check string) "restart reproduces the run byte-for-byte" expected
    replayed;
  Store.close store

(* --- suite ------------------------------------------------------------- *)

let suite =
  [
    Alcotest.test_case "lockfile: second acquire fails fast" `Quick
      test_lockfile_conflict;
    Alcotest.test_case "lockfile: stale lock of a dead pid is broken" `Quick
      test_lockfile_stale_broken;
    Alcotest.test_case "store: namespaced roundtrip, first write wins" `Quick
      test_store_roundtrip;
    Alcotest.test_case "store: corrupt tail truncated on open" `Quick
      test_store_corrupt_tail;
    Alcotest.test_case "store: single writer per directory" `Quick
      test_store_single_writer;
    Alcotest.test_case "store: fresh open discards the journal" `Quick
      test_store_open_fresh;
    Alcotest.test_case "breaker: trip, cooldown, half-open, close" `Quick
      test_breaker_state_machine;
    Alcotest.test_case "server: request order kept, crashes isolated" `Quick
      test_server_order_and_fault_isolation;
    Alcotest.test_case "server: settle thunks run in request order" `Quick
      test_server_settle_order;
    Alcotest.test_case "server: overlong line rejected in bounded memory" `Quick
      test_server_overlong_line;
    Alcotest.test_case "server: drain finishes the in-flight batch" `Quick
      test_server_drain_finishes_batch;
    Alcotest.test_case "protocol: validation error taxonomy" `Quick
      test_protocol_validation;
    Alcotest.test_case "protocol: admission control rejects declared overload"
      `Quick test_protocol_admission;
    Alcotest.test_case "protocol: health reports store and breakers" `Quick
      test_protocol_health;
    Alcotest.test_case "protocol: poison by tag is jobs-invariant" `Quick
      test_poison_by_tag;
    Alcotest.test_case "protocol: crash details are redacted" `Quick
      test_redaction;
    Alcotest.test_case "breaker: degraded answers, then recovery" `Quick
      test_breaker_degrades_and_recovers;
    Alcotest.test_case "store: warm answers byte-identical across restart"
      `Quick test_store_serves_warm_and_restart;
    Alcotest.test_case "store: records of an older numerics tag miss" `Quick
      test_store_stale_numerics_misses;
    Alcotest.test_case "chaos: SIGKILL mid-serve, restart replays identically"
      `Quick test_kill_and_restart_serving;
  ]
