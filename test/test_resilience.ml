(* Resilience suite: the checkpoint journal (a Store armed through
   Sweep: roundtrip, corruption chaos, sweep integration, the
   resilience report's counters), deterministic retry (counters,
   backoff purity), and cooperative deadlines (budget tokens, pool
   watchdog).

   The journal, retry policy, deadline default and fault log are
   process-wide, so every test that arms one disarms it in a
   [Fun.protect] finally — the rest of the binary must run with the
   resilience layer quiescent. *)

module Fault = Nmcache_engine.Fault
module Faultpoint = Nmcache_engine.Faultpoint
module Store = Nmcache_engine.Store
module Json = Nmcache_engine.Json
module Obs = Nmcache_engine.Obs
module Retry = Nmcache_engine.Retry
module Deadline = Nmcache_engine.Deadline
module Metrics = Nmcache_engine.Metrics
module Pool = Nmcache_engine.Pool
module Task = Nmcache_engine.Task
module Sweep = Nmcache_engine.Sweep

(* tests must not really sleep; the backoff schedule is tested as a
   pure function, so dropping the sleeps loses nothing *)
let () = Retry.set_sleep (fun _ -> ())

let tmp_counter = ref 0

let tmpdir () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ppck-test-%d-%d" (Unix.getpid ()) !tmp_counter)

let with_store ~dir ~resume f =
  let s = if resume then Store.open_ ~dir else Store.open_fresh ~dir in
  Fun.protect ~finally:(fun () -> Store.close s) (fun () -> f s)

(* run [f] with [s] armed as the checkpoint journal *)
let armed s f =
  Sweep.set_journal (Some s);
  Fun.protect ~finally:(fun () -> Sweep.set_journal None) f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* --- journal roundtrip ----------------------------------------------- *)

let test_roundtrip () =
  let dir = tmpdir () in
  let calls = ref 0 in
  let compute v () =
    incr calls;
    v
  in
  Alcotest.(check int) "unarmed: just the computation" 5
    (Sweep.journaled ~key:"a" (compute 5));
  with_store ~dir ~resume:false (fun s ->
      armed s (fun () ->
          Alcotest.(check int) "a computed" 11 (Sweep.journaled ~key:"a" (compute 11));
          Alcotest.(check int) "b computed" 22 (Sweep.journaled ~key:"b" (compute 22));
          (* a journaled key is served, never recomputed *)
          Alcotest.(check int) "a served" 11 (Sweep.journaled ~key:"a" (compute 99)));
      Alcotest.(check int) "computed once per key" 3 !calls;
      Alcotest.(check int) "appended" 2 (Store.appended s);
      Alcotest.(check (list string)) "slots live in the slot namespace" [ "a"; "b" ]
        (Store.keys s ~ns:"slot"));
  with_store ~dir ~resume:true (fun s ->
      Alcotest.(check int) "replayed" 2 (Store.replayed s);
      armed s (fun () ->
          Alcotest.(check int) "a from disk" 11 (Sweep.journaled ~key:"a" (compute 0));
          Alcotest.(check int) "b from disk" 22 (Sweep.journaled ~key:"b" (compute 0)));
      Alcotest.(check int) "nothing recomputed" 3 !calls;
      Alcotest.(check int) "served" 2 (Store.served s));
  (* a failing computation journals nothing *)
  with_store ~dir ~resume:true (fun s ->
      armed s (fun () ->
          match Sweep.journaled ~key:"c" (fun () -> failwith "boom") with
          | (_ : int) -> Alcotest.fail "should have raised"
          | exception Failure _ -> ());
      Alcotest.(check bool) "failed slot not journaled" false
        (Store.mem s ~ns:"slot" ~key:"c"))

(* --- corruption chaos ------------------------------------------------ *)

(* a fresh checkpoint directory holding [entries] as journaled slots *)
let seeded_dir entries =
  let dir = tmpdir () in
  with_store ~dir ~resume:false (fun s ->
      armed s (fun () ->
          List.iter
            (fun (k, v) -> ignore (Sweep.journaled ~key:k (fun () -> (v : string))))
            entries));
  (dir, Filename.concat dir Store.store_name)

let not_recomputed key () = Alcotest.failf "slot %s recomputed" key

let test_truncated_tail () =
  let dir, path = seeded_dir [ ("k1", "v1"); ("k2", "v2"); ("k3", "v3") ] in
  let bytes = read_file path in
  (* chop into the last record: replay must keep k1/k2, drop k3 *)
  write_file path (String.sub bytes 0 (String.length bytes - 3));
  with_store ~dir ~resume:true (fun s ->
      Alcotest.(check int) "last good records kept" 2 (Store.replayed s);
      Alcotest.(check bool) "tail dropped" true (Store.dropped_tail s);
      armed s (fun () ->
          Alcotest.(check string) "good slot served" "v2"
            (Sweep.journaled ~key:"k2" (not_recomputed "k2"));
          (* the corrupt slot is never served: it is recomputed, and the
             truncated journal extends cleanly *)
          Alcotest.(check string) "corrupt slot recomputed" "v3'"
            (Sweep.journaled ~key:"k3" (fun () -> "v3'"))));
  with_store ~dir ~resume:true (fun s ->
      Alcotest.(check int) "extended journal replays whole" 3 (Store.replayed s);
      Alcotest.(check bool) "no dropped tail after repair" false (Store.dropped_tail s);
      armed s (fun () ->
          Alcotest.(check string) "recomputed slot served" "v3'"
            (Sweep.journaled ~key:"k3" (not_recomputed "k3"))))

let test_garbled_record () =
  let keys = [ "k1"; "k22"; "k333" ] in
  let dir, path = seeded_dir (List.map (fun k -> (k, "v" ^ k)) keys) in
  let record_len k =
    String.length
      (Store.encode_record ~ns:"slot" ~key:k ~value:(Marshal.to_string ("v" ^ k) []))
  in
  (* flip the last byte of k22's record, its CRC: replay stops after
     k1, and everything from k22 on is dropped *)
  let i = String.length Store.magic + record_len "k1" + record_len "k22" - 1 in
  let bytes = Bytes.of_string (read_file path) in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0xFF));
  write_file path (Bytes.to_string bytes);
  with_store ~dir ~resume:true (fun s ->
      Alcotest.(check int) "replay stops at bad crc" 1 (Store.replayed s);
      Alcotest.(check bool) "tail dropped" true (Store.dropped_tail s);
      Alcotest.(check bool) "garbled slot never served" false
        (Store.mem s ~ns:"slot" ~key:"k22");
      Alcotest.(check bool) "slots after it dropped too" false
        (Store.mem s ~ns:"slot" ~key:"k333");
      armed s (fun () ->
          Alcotest.(check string) "good slot served" "vk1"
            (Sweep.journaled ~key:"k1" (not_recomputed "k1"))))

let test_empty_and_foreign_journals () =
  (* a zero-byte file or a foreign header is not a journal: the run
     starts over, and the restarted journal replays *)
  List.iter
    (fun (what, content) ->
      let dir = tmpdir () in
      Unix.mkdir dir 0o755;
      write_file (Filename.concat dir Store.store_name) content;
      with_store ~dir ~resume:true (fun s ->
          Alcotest.(check int) (what ^ ": replays nothing") 0 (Store.replayed s);
          armed s (fun () -> ignore (Sweep.journaled ~key:"k" (fun () -> "v"))));
      with_store ~dir ~resume:true (fun s ->
          Alcotest.(check int) (what ^ ": restarted journal replays") 1
            (Store.replayed s);
          armed s (fun () ->
              Alcotest.(check string) (what ^ ": slot served") "v"
                (Sweep.journaled ~key:"k" (not_recomputed "k")))))
    [ ("zero-byte file", ""); ("foreign header", "NOTAJRNLgarbage bytes") ]

(* --- sweep integration ----------------------------------------------- *)

let test_sweep_resume () =
  let dir = tmpdir () in
  let calls = Atomic.make 0 in
  let task =
    Task.make ~name:"sq" ~key:string_of_int (fun x ->
        Atomic.incr calls;
        x * x)
  in
  let run ?(n = 8) ~resume ~jobs () =
    with_store ~dir ~resume (fun s ->
        armed s (fun () ->
            (Sweep.map_array ~pool:(Pool.create ~jobs) task (Array.init n Fun.id), s)))
  in
  (* "crash" after half the sweep: only the first four slots ran *)
  let _, j0 = run ~n:4 ~resume:false ~jobs:1 () in
  Alcotest.(check int) "partial run computed 4" 4 (Atomic.get calls);
  Alcotest.(check int) "partial run journaled 4" 4 (Store.appended j0);
  (* resume completes the rest without recomputing the journaled slots *)
  let r1, j1 = run ~resume:true ~jobs:1 () in
  Alcotest.(check int) "resume computed only the tail" 8 (Atomic.get calls);
  Alcotest.(check int) "resume replayed 4" 4 (Store.replayed j1);
  Alcotest.(check int) "resume appended 4" 4 (Store.appended j1);
  (* a parallel resume serves everything and matches exactly *)
  let r2, j2 = run ~resume:true ~jobs:4 () in
  Alcotest.(check int) "full resume computed nothing" 8 (Atomic.get calls);
  Alcotest.(check int) "full resume replayed all" 8 (Store.replayed j2);
  Alcotest.(check int) "full resume appended none" 0 (Store.appended j2);
  Alcotest.(check (array int)) "results identical across jobs/resume" r1 r2;
  Alcotest.(check (array int)) "results correct" (Array.init 8 (fun i -> i * i)) r2

let test_sweep_result_journals_only_successes () =
  let dir = tmpdir () in
  let task =
    Task.make ~name:"flaky" ~key:string_of_int (fun x ->
        if x = 2 then Fault.error ~kind:Fault.Crashed ~stage:"flaky" "boom";
        x * 10)
  in
  Fun.protect ~finally:Fault.reset @@ fun () ->
  with_store ~dir ~resume:false @@ fun s ->
  let results =
    armed s (fun () ->
        Sweep.map_array_result ~pool:Pool.sequential task (Array.init 4 Fun.id))
  in
  Alcotest.(check int) "three successes journaled" 3 (Store.appended s);
  Alcotest.(check bool) "successful slot journaled under its key" true
    (Store.mem s ~ns:"slot" ~key:"flaky\x001");
  Alcotest.(check bool) "faulted slot not journaled" false
    (Store.mem s ~ns:"slot" ~key:"flaky\x002");
  match results.(2) with
  | Error f -> Alcotest.(check bool) "slot faulted" true (f.Fault.kind = Fault.Crashed)
  | Ok _ -> Alcotest.fail "slot 2 should have faulted"

(* the resilience section of every report reads the checkpoint.*
   counters; the registry is process-wide, so compare deltas *)
let checkpoint_counts () =
  match Json.member "checkpoint" (Obs.resilience_json ()) with
  | None -> Alcotest.fail "resilience report has no checkpoint section"
  | Some c ->
    List.map
      (fun field ->
        match Option.bind (Json.member field c) Json.to_int with
        | Some n -> n
        | None -> Alcotest.failf "checkpoint.%s missing" field)
      [ "replayed"; "served"; "appended"; "dropped_tails" ]

let test_checkpoint_counters () =
  let dir = tmpdir () in
  let task = Task.make ~name:"cube" ~key:string_of_int (fun x -> x * x * x) in
  let counted ~n ~resume =
    let before = checkpoint_counts () in
    with_store ~dir ~resume (fun s ->
        armed s (fun () ->
            ignore (Sweep.map_array ~pool:Pool.sequential task (Array.init n Fun.id))));
    List.map2 ( - ) (checkpoint_counts ()) before
  in
  let fields = Alcotest.(list int) in
  Alcotest.check fields "journaled run: [replayed; served; appended; dropped]"
    [ 0; 0; 5; 0 ] (counted ~n:5 ~resume:false);
  Alcotest.check fields "resume serves the journaled slots, appends the rest"
    [ 5; 5; 3; 0 ] (counted ~n:8 ~resume:true);
  (* a torn tail is dropped on open and counted once the store is armed *)
  let path = Filename.concat dir Store.store_name in
  write_file path (read_file path ^ "\x05\x00\x00\x00torn");
  Alcotest.check fields "torn tail dropped, every slot served" [ 8; 8; 0; 1 ]
    (counted ~n:8 ~resume:true);
  Alcotest.check fields "without resume the journal starts over" [ 0; 0; 8; 0 ]
    (counted ~n:8 ~resume:false)

(* --- retry ------------------------------------------------------------ *)

let test_retry_recovers () =
  let c = Metrics.counter_value in
  let a0 = c "retry.attempts" and r0 = c "retry.recovered" in
  let calls = ref 0 in
  let v =
    Retry.run ~stage:"t" ~key:"k" (fun ~attempt ~last:_ ->
        incr calls;
        if attempt < 3 then Fault.error ~kind:Fault.Injected ~stage:"t" "transient";
        7)
  in
  Alcotest.(check int) "value" 7 v;
  Alcotest.(check int) "three attempts" 3 !calls;
  Alcotest.(check int) "attempts counted" 2 (c "retry.attempts" - a0);
  Alcotest.(check int) "recovery counted" 1 (c "retry.recovered" - r0)

let test_retry_exhausts () =
  let c = Metrics.counter_value in
  let e0 = c "retry.exhausted" in
  let calls = ref 0 in
  (match
     Retry.run ~stage:"t" ~key:"k2" (fun ~attempt:_ ~last:_ ->
         incr calls;
         Fault.error ~kind:Fault.Injected ~stage:"t" "permanent")
   with
  | (_ : int) -> Alcotest.fail "should have raised"
  | exception Fault.Fault f ->
    Alcotest.(check bool) "fault propagates" true (f.Fault.kind = Fault.Injected));
  Alcotest.(check int) "budget honoured" (Retry.default_policy.Retry.max_attempts) !calls;
  Alcotest.(check int) "exhaustion counted" 1 (c "retry.exhausted" - e0)

let test_retry_skips_deterministic_kinds () =
  let calls = ref 0 in
  (match
     Retry.run ~stage:"t" ~key:"k3" (fun ~attempt:_ ~last:_ ->
         incr calls;
         Fault.error ~kind:Fault.Singular_system ~stage:"t" "deterministic")
   with
  | (_ : int) -> Alcotest.fail "should have raised"
  | exception Fault.Fault _ -> ());
  Alcotest.(check int) "no retry for deterministic kinds" 1 !calls

let test_retry_with_faultpoint_key_arm () =
  (* a Key arm is transient by design: it fires on attempt 1 only, so
     the retry boundary recovers it without recording a casualty *)
  (match Faultpoint.configure "spin=k1" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Fun.protect
    ~finally:(fun () ->
      Faultpoint.clear ();
      Fault.reset ())
    (fun () ->
      let calls = ref 0 in
      let v =
        Retry.run ~stage:"spin" ~key:"k1" (fun ~attempt ~last:_ ->
            incr calls;
            Faultpoint.hit ~attempt ~point:"spin" ~key:"k1" ();
            42)
      in
      Alcotest.(check int) "recovered on attempt 2" 2 !calls;
      Alcotest.(check int) "value" 42 v)

let test_faultpoint_attempt_semantics () =
  (match Faultpoint.configure "p=k1,q,r:1.0,seed:7" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Fun.protect ~finally:Faultpoint.clear (fun () ->
      Alcotest.(check bool) "key arm fires attempt 1" true
        (Faultpoint.should_fire ~attempt:1 ~point:"p" ~key:"k1" ());
      Alcotest.(check bool) "key arm is transient" false
        (Faultpoint.should_fire ~attempt:2 ~point:"p" ~key:"k1" ());
      Alcotest.(check bool) "always arm fires attempt 1" true
        (Faultpoint.should_fire ~attempt:1 ~point:"q" ~key:"any" ());
      Alcotest.(check bool) "always arm is permanent" true
        (Faultpoint.should_fire ~attempt:2 ~point:"q" ~key:"any" ());
      Alcotest.(check bool) "p=1 prob arm fires every attempt" true
        (Faultpoint.should_fire ~attempt:3 ~point:"r" ~key:"any" ()))

let backoff_pure_prop =
  (* the schedule is a pure function of (seed, stage, key, attempt),
     bounded by the jitter envelope around the capped exponential *)
  QCheck.Test.make ~count:300
    ~name:"retry backoff is pure and inside the jitter envelope"
    QCheck.(
      quad small_printable_string small_printable_string (int_range 1 8)
        (int_range 0 100_000))
    (fun (stage, key, attempt, seedi) ->
      let p = Retry.default_policy in
      let seed = Int64.of_int seedi in
      let d1 = Retry.backoff_s p ~seed ~stage ~key ~attempt in
      let d2 = Retry.backoff_s p ~seed ~stage ~key ~attempt in
      let capped =
        Float.min p.Retry.max_delay_s
          (p.Retry.base_delay_s *. (2.0 ** float_of_int (attempt - 1)))
      in
      d1 = d2
      && d1 >= capped *. (1.0 -. p.Retry.jitter) -. 1e-12
      && d1 <= capped *. (1.0 +. p.Retry.jitter) +. 1e-12)

let test_retry_policy_validation () =
  (match Retry.set_max_attempts 0 with
  | () -> Alcotest.fail "max_attempts 0 accepted"
  | exception Invalid_argument _ -> ());
  Retry.set_max_attempts 5;
  Fun.protect ~finally:Retry.reset (fun () ->
      Alcotest.(check int) "override sticks" 5 (Retry.policy ()).Retry.max_attempts)

(* --- deadlines -------------------------------------------------------- *)

let test_deadline_budget_zero_fires () =
  match
    Deadline.with_budget ~budget_s:0.0 (fun () ->
        Deadline.poll ~stage:"spin";
        `Survived)
  with
  | `Survived -> Alcotest.fail "budget 0 should fire on first poll"
  | exception Fault.Fault f ->
    Alcotest.(check bool) "timed_out" true (f.Fault.kind = Fault.Timed_out);
    Alcotest.(check string) "stage" "spin" f.Fault.stage;
    (* the detail names the budget, never elapsed time: byte-stable *)
    Alcotest.(check string) "deterministic detail"
      "exceeded the 0s kernel budget" f.Fault.detail

let test_deadline_unarmed_is_nop () =
  Deadline.poll ~stage:"anything";
  Alcotest.(check bool) "not armed" false (Deadline.armed ());
  Alcotest.(check bool) "not expired" false (Deadline.expired ())

let test_deadline_restores_token () =
  Deadline.with_budget ~budget_s:1000.0 (fun () ->
      (match
         Deadline.with_budget ~budget_s:0.0 (fun () -> Deadline.poll ~stage:"inner")
       with
      | () -> Alcotest.fail "inner budget should fire"
      | exception Fault.Fault _ -> ());
      (* the enclosing token is restored: polling is safe again *)
      Deadline.poll ~stage:"outer";
      Alcotest.(check bool) "outer still armed" true (Deadline.armed ()));
  Alcotest.(check bool) "disarmed outside" false (Deadline.armed ())

let test_with_root_arms_default () =
  Deadline.set_default (Some 0.0);
  Fun.protect
    ~finally:(fun () -> Deadline.set_default None)
    (fun () ->
      (match Deadline.with_root (fun () -> Deadline.poll ~stage:"root") with
      | () -> Alcotest.fail "default budget should fire"
      | exception Fault.Fault f ->
        Alcotest.(check bool) "timed_out" true (f.Fault.kind = Fault.Timed_out));
      (* nested roots inherit the enclosing token instead of rearming *)
      Deadline.with_budget ~budget_s:1000.0 (fun () ->
          Deadline.with_root (fun () -> Deadline.poll ~stage:"nested"));
      (match Deadline.set_default (Some (-1.0)) with
      | () -> Alcotest.fail "negative budget accepted"
      | exception Invalid_argument _ -> ()))

let test_pool_watchdog_drains () =
  (* satellite (c): a kernel that never returns on its own — it only
     polls — must become four timed_out slots, and the pool must join
     (reaching the checks below proves it did) *)
  Deadline.set_default (Some 0.0);
  Fun.protect
    ~finally:(fun () ->
      Deadline.set_default None;
      Fault.reset ())
    (fun () ->
      let c0 = Metrics.counter_value "deadline.fired" in
      let task =
        Task.make ~name:"spin.forever" (fun (_ : int) ->
            while true do
              Deadline.poll ~stage:"spin.forever"
            done)
      in
      let results =
        Sweep.map_array_result ~pool:(Pool.create ~jobs:4) task (Array.init 4 Fun.id)
      in
      Alcotest.(check int) "all slots settled" 4 (Array.length results);
      Array.iter
        (function
          | Error f ->
            Alcotest.(check bool) "slot timed out" true (f.Fault.kind = Fault.Timed_out)
          | Ok () -> Alcotest.fail "spinning kernel returned")
        results;
      Alcotest.(check int) "watchdog fired per slot" 4
        (Metrics.counter_value "deadline.fired" - c0);
      Alcotest.(check int) "every casualty recorded" 4
        (List.length
           (List.filter
              (fun f -> f.Fault.kind = Fault.Timed_out)
              (Fault.recorded ()))))

(* Kill-during-write chaos gate for the atomic report path.  Unix.fork
   is unavailable once domains exist (earlier tests spawn pools), so
   the writer child is this same test binary re-executed with
   [kill_writer_env] set — test_main diverts into [writer_child_main]
   before Alcotest (and any domain) starts. *)
let kill_writer_env = "PPCACHE_TEST_KILL_WRITER"

(* a few hundred KB, so a mid-write kill is very likely to land inside
   the output loop *)
let big_report () =
  let module Json = Nmcache_engine.Json in
  Json.Obj
    [
      ( "rows",
        Json.List
          (List.init 20_000 (fun i ->
               Json.Obj [ ("i", Json.Int i); ("v", Json.Float (float_of_int i)) ])) );
    ]

let writer_child_main target : unit =
  let report = big_report () in
  while true do
    Nmcache_engine.Obs.write_json ~path:target report
  done

let test_kill_during_report_write () =
  (* a child process rewriting a big JSON report in a tight loop is
     SIGKILLed mid-flight; because writes go to FILE.tmp then rename,
     the target must always parse as complete JSON — never a
     truncated tail *)
  let module Json = Nmcache_engine.Json in
  let module Obs = Nmcache_engine.Obs in
  let dir = tmpdir () in
  Unix.mkdir dir 0o755;
  let target = Filename.concat dir "report.json" in
  (* one clean write so the target exists: the kill must never be able
     to destroy the last good report either *)
  Obs.write_json ~path:target (big_report ());
  let env =
    Array.append (Unix.environment ()) [| kill_writer_env ^ "=" ^ target |]
  in
  let child =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin Unix.stdout Unix.stderr
  in
  Unix.sleepf 0.15;
  Unix.kill child Sys.sigkill;
  ignore (Unix.waitpid [] child);
  Alcotest.(check bool) "target survives the kill" true (Sys.file_exists target);
  match Json.parse (read_file target) with
  | Ok j ->
    let rows = Option.get (Option.bind (Json.member "rows" j) Json.to_list) in
    Alcotest.(check int) "report complete, not truncated" 20_000 (List.length rows)
  | Error e -> Alcotest.failf "killed writer left corrupt report: %s" e

let suite =
  [
    Alcotest.test_case "checkpoint: journal roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "checkpoint: truncated tail dropped and repaired" `Quick
      test_truncated_tail;
    Alcotest.test_case "checkpoint: garbled record stops replay" `Quick
      test_garbled_record;
    Alcotest.test_case "checkpoint: empty/foreign journals restart" `Quick
      test_empty_and_foreign_journals;
    Alcotest.test_case "checkpoint: sweep crash/resume recomputes only the tail"
      `Quick test_sweep_resume;
    Alcotest.test_case "checkpoint: result sweeps journal only successes" `Quick
      test_sweep_result_journals_only_successes;
    Alcotest.test_case "checkpoint: resilience report counts the journal" `Quick
      test_checkpoint_counters;
    Alcotest.test_case "retry: transient fault recovered" `Quick test_retry_recovers;
    Alcotest.test_case "retry: budget exhaustion re-raises" `Quick test_retry_exhausts;
    Alcotest.test_case "retry: deterministic kinds fail fast" `Quick
      test_retry_skips_deterministic_kinds;
    Alcotest.test_case "retry: key-arm injection is transient" `Quick
      test_retry_with_faultpoint_key_arm;
    Alcotest.test_case "faultpoint: per-arm attempt semantics" `Quick
      test_faultpoint_attempt_semantics;
    Generators.to_alcotest backoff_pure_prop;
    Alcotest.test_case "retry: policy validation" `Quick test_retry_policy_validation;
    Alcotest.test_case "deadline: zero budget fires deterministically" `Quick
      test_deadline_budget_zero_fires;
    Alcotest.test_case "deadline: unarmed poll is a nop" `Quick
      test_deadline_unarmed_is_nop;
    Alcotest.test_case "deadline: nesting restores the token" `Quick
      test_deadline_restores_token;
    Alcotest.test_case "deadline: with_root arms the process default" `Quick
      test_with_root_arms_default;
    Alcotest.test_case "deadline: pool drains under a never-returning kernel" `Quick
      test_pool_watchdog_drains;
    Alcotest.test_case "obs: kill during report write leaves a parseable file" `Quick
      test_kill_during_report_write;
  ]
