(* Stream suite: the chunk-equivalence harness for the streaming trace
   engine.

   The load-bearing property is byte-identity: for every source and
   every chunk size, streamed analysis / replay / profiling /
   simulation must equal the materialised-trace results exactly — the
   golden matrix pins it for the headline workloads at chunk sizes
   {1, 7, 4096, whole}, and a QCheck property re-samples (workload,
   chunk) pairs.  The PPTRC01 chaos set mirrors the store journal
   tests in test_serve: round-trip, torn tail, mid-file corruption,
   foreign files, the address domain.  The kill-and-resume gate
   SIGKILLs a checkpointed streamed simulation mid-chunk in a
   re-exec'd child and requires the resumed run to finish
   byte-identically.  The allocation gate pins the packed, reused
   chunk path: replaying a recorded file allocates almost nothing per
   access. *)

module Trace = Nmcache_cachesim.Trace
module Stream_trace = Nmcache_cachesim.Stream_trace
module Cache = Nmcache_cachesim.Cache
module Hierarchy = Nmcache_cachesim.Hierarchy
module Replacement = Nmcache_cachesim.Replacement
module Stats = Nmcache_cachesim.Stats
module Gen = Nmcache_workload.Gen
module Access = Nmcache_workload.Access
module Registry = Nmcache_workload.Registry
module Profile = Nmcache_workload.Profile
module Missrate = Nmcache_workload.Missrate
module Wstream = Nmcache_workload.Stream
module Store = Nmcache_engine.Store
module Sweep = Nmcache_engine.Sweep
module Executor = Nmcache_engine.Executor

let tmp_counter = ref 0

let tmpdir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ppstream-test-%d-%d" (Unix.getpid ()) !tmp_counter)
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

let entries_of workload n =
  Array.map
    (fun (a : Access.t) -> { Trace.addr = a.Access.addr; write = a.Access.write })
    (Gen.take (Registry.build workload) n)

let make_hierarchy () =
  let l1 =
    Cache.create ~size_bytes:(4 * 1024) ~assoc:4 ~block_bytes:64
      ~policy:Replacement.Lru ()
  in
  let l2 =
    Cache.create ~size_bytes:(32 * 1024) ~assoc:8 ~block_bytes:64
      ~policy:Replacement.Lru ()
  in
  Hierarchy.create ~l1 ~l2

let hierarchy_stats h = (Cache.stats (Hierarchy.l1 h), Cache.stats (Hierarchy.l2 h))

let collect s =
  let acc = ref [] in
  let (_ : int) =
    Stream_trace.iter s (fun addr write -> acc := { Trace.addr; write } :: !acc)
  in
  Array.of_list (List.rev !acc)

let record_to ~path ~name ~chunk_size entries =
  let i = ref 0 in
  Stream_trace.write_file ~path ~name ~chunk_size
    ~next:(fun () ->
      let e = entries.(!i) in
      incr i;
      e)
    ~n:(Array.length entries) ()

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* --- golden identity matrix -------------------------------------------- *)

let test_golden_identity_matrix () =
  List.iter
    (fun workload ->
      let n = 20_000 in
      let entries = entries_of workload n in
      let trace = Trace.of_entries entries in
      let ref_stats = Trace.analyze trace in
      let ref_h = make_hierarchy () in
      Trace.replay_hierarchy trace ref_h;
      let ref_pair = hierarchy_stats ref_h in
      List.iter
        (fun chunk_size ->
          let stream () = Stream_trace.of_trace ~chunk_size ~name:workload trace in
          Alcotest.(check bool)
            (Printf.sprintf "%s chunk %d: streamed analyze identical" workload
               chunk_size)
            true
            (Stream_trace.analyze (stream ()) = ref_stats);
          let h, count = Stream_trace.replay_hierarchy (stream ()) (make_hierarchy ()) in
          Alcotest.(check int)
            (Printf.sprintf "%s chunk %d: every entry streamed" workload chunk_size)
            n count;
          Alcotest.(check bool)
            (Printf.sprintf "%s chunk %d: streamed replay stats identical" workload
               chunk_size)
            true
            (hierarchy_stats h = ref_pair))
        [ 1; 7; 4096; n ])
    Registry.headline

let test_producer_matches_take () =
  List.iter
    (fun workload ->
      let n = 5_000 in
      let expected = entries_of workload n in
      let got = collect (Wstream.of_workload ~chunk_size:64 ~workload ~n ()) in
      Alcotest.(check bool)
        (workload ^ ": wrapped workload streams the Gen.take entries")
        true (got = expected))
    Registry.headline

(* --- profile and simulate equality ------------------------------------- *)

let check_profile_eq ~what (a : Profile.t) (b : Profile.t) =
  Alcotest.(check int) (what ^ ": n") a.Profile.n b.Profile.n;
  Alcotest.(check int) (what ^ ": accesses") a.Profile.accesses b.Profile.accesses;
  Alcotest.(check int) (what ^ ": cold") a.Profile.cold b.Profile.cold;
  Alcotest.(check bool) (what ^ ": dists") true (a.Profile.dists = b.Profile.dists);
  Alcotest.(check bool) (what ^ ": counts") true (a.Profile.counts = b.Profile.counts);
  Alcotest.(check bool) (what ^ ": suffix") true (a.Profile.suffix = b.Profile.suffix)

let test_profile_stream_equality () =
  let workload = "tpcc" and n = 20_000 in
  List.iter
    (fun chunk_size ->
      let raw_ref = Profile.raw ~workload ~n () in
      let raw_s =
        Profile.of_stream ~kind:Profile.Raw
          (Wstream.of_workload ~chunk_size ~workload ~n ())
      in
      check_profile_eq ~what:(Printf.sprintf "raw chunk %d" chunk_size) raw_s raw_ref;
      let l1_size = 8 * 1024 in
      let filt_ref = Profile.l1_filtered ~workload ~l1_size ~n () in
      let filt_s =
        Profile.of_stream
          ~kind:(Profile.L1_filtered { l1_size; l1_assoc = 4 })
          (Wstream.of_workload ~chunk_size ~workload ~n ())
      in
      check_profile_eq ~what:(Printf.sprintf "filtered chunk %d" chunk_size) filt_s
        filt_ref;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "filtered chunk %d: l1 miss rate" chunk_size)
        filt_ref.Profile.l1_miss_rate filt_s.Profile.l1_miss_rate)
    [ 7; n ]

let test_simulate_stream_equality () =
  let workload = "specweb" and n = 20_000 in
  let l1_size = 8 * 1024 and l2_size = 64 * 1024 in
  let reference = Missrate.simulate ~workload ~l1_size ~l2_size ~n () in
  let streamed chunk_size =
    Missrate.simulate_stream
      ~stream:(Wstream.of_workload ~chunk_size ~workload ~n ())
      ~l1_size ~l2_size ()
  in
  List.iter
    (fun chunk_size ->
      Alcotest.(check bool)
        (Printf.sprintf "chunk %d: streamed point bitwise-equal" chunk_size)
        true
        (streamed chunk_size = reference))
    [ 1; 7; 4096; n ];
  (* the executor pool width must be invisible to the (sequential)
     streamed fold *)
  Executor.set_jobs 4;
  Fun.protect
    ~finally:(fun () -> Executor.set_jobs 1)
    (fun () ->
      Alcotest.(check bool) "jobs 4: streamed point bitwise-equal" true
        (streamed 512 = reference))

let chunk_invariance_prop =
  QCheck.Test.make ~name:"stream: chunk size never changes analyze/replay"
    ~count:25
    QCheck.(pair Generators.workload_arb (int_range 1 257))
    (fun (workload, chunk_size) ->
      let n = 3_000 in
      let entries = entries_of workload n in
      let trace = Trace.of_entries entries in
      let stream () = Stream_trace.of_trace ~chunk_size ~name:workload trace in
      let ref_h = make_hierarchy () in
      Trace.replay_hierarchy trace ref_h;
      let h, count = Stream_trace.replay_hierarchy (stream ()) (make_hierarchy ()) in
      Stream_trace.analyze (stream ()) = Trace.analyze trace
      && count = n
      && hierarchy_stats h = hierarchy_stats ref_h)

(* Arbitrary entries across the whole address domain, boundaries
   included, with both write bits: recorded to PPTRC01 at a random
   on-disk grain and streamed back at chunk size 1, 7 or 4096, every
   packed entry unpacks to what was written and every chunk but the
   last is exactly chunk-sized. *)
let pptrc_packed_roundtrip_prop =
  let addr_gen =
    QCheck.Gen.(
      frequency
        [
          (1, return 0);
          (1, return Stream_trace.max_addr);
          (3, int_bound 4096);
          (3, int_bound Stream_trace.max_addr);
        ])
  in
  QCheck.Test.make ~name:"pptrc: packed chunks round-trip the full address domain"
    ~count:60
    (QCheck.make
       ~print:(fun (entries, disk_chunk, chunk_size) ->
         Printf.sprintf "%d entries, on-disk chunk %d, chunk %d" (List.length entries)
           disk_chunk chunk_size)
       QCheck.Gen.(
         triple
           (list_size (int_range 0 600) (pair addr_gen bool))
           (int_range 1 300) (oneofl [ 1; 7; 4096 ])))
    (fun (entries, disk_chunk, chunk_size) ->
      let entries =
        Array.of_list (List.map (fun (addr, write) -> { Trace.addr; write }) entries)
      in
      let path = Filename.concat (tmpdir ()) "domain.pptrc" in
      record_to ~path ~name:"domain" ~chunk_size:disk_chunk entries;
      let n = Array.length entries in
      let got, shapes_ok =
        Stream_trace.fold_chunks (Stream_trace.of_file ~chunk_size path)
          ~init:(0, true)
          ~f:(fun (seen, ok) ~index:_ chunk ->
            let len = Array.length chunk in
            let ok = ok && (len = chunk_size || seen + len = n) in
            let ok = ref ok in
            Array.iteri
              (fun i e ->
                let want = entries.(seen + i) in
                if Stream_trace.addr e <> want.Trace.addr
                   || Stream_trace.is_write e <> want.Trace.write
                then ok := false)
              chunk;
            (seen + len, !ok))
      in
      Sys.remove path;
      got = n && shapes_ok)

(* --- PPTRC01 chaos set -------------------------------------------------- *)

let test_pptrc_roundtrip () =
  let path = Filename.concat (tmpdir ()) "t.pptrc" in
  let n = 5_000 in
  let entries = entries_of "spec2000-mix" n in
  record_to ~path ~name:"spec2000-mix" ~chunk_size:257 entries;
  (* read back at an unrelated streaming grain *)
  let got = collect (Stream_trace.of_file ~chunk_size:31 path) in
  Alcotest.(check bool) "round-trip is entry-exact" true (got = entries);
  let info = Stream_trace.file_info path in
  Alcotest.(check string) "header name" "spec2000-mix" info.Stream_trace.fi_name;
  Alcotest.(check int) "header total" n info.Stream_trace.fi_total;
  Alcotest.(check int) "entries" n info.Stream_trace.fi_entries;
  Alcotest.(check int) "chunks" ((n + 256) / 257) info.Stream_trace.fi_chunks;
  Alcotest.(check int) "on-disk chunk" 257 info.Stream_trace.fi_chunk_size;
  Alcotest.(check bool) "no dropped tail" false info.Stream_trace.fi_dropped_tail

let test_pptrc_truncated_tail () =
  let path = Filename.concat (tmpdir ()) "t.pptrc" in
  let n = 1_000 in
  let entries = entries_of "tpcc" n in
  record_to ~path ~name:"tpcc" ~chunk_size:250 entries;
  let raw = read_file path in
  write_file path (String.sub raw 0 (String.length raw - 3));
  let info = Stream_trace.file_info path in
  Alcotest.(check bool) "torn tail detected" true info.Stream_trace.fi_dropped_tail;
  Alcotest.(check int) "last chunk dropped" 750 info.Stream_trace.fi_entries;
  Alcotest.(check int) "three chunks survive" 3 info.Stream_trace.fi_chunks;
  let got = collect (Stream_trace.of_file path) in
  Alcotest.(check bool) "surviving prefix is entry-exact" true
    (got = Array.sub entries 0 750)

let test_pptrc_corrupt_middle () =
  let path = Filename.concat (tmpdir ()) "t.pptrc" in
  let n = 1_000 in
  let entries = entries_of "specweb" n in
  record_to ~path ~name:"specweb" ~chunk_size:250 entries;
  let raw = read_file path in
  (* flip one byte mid-file: whatever record it lands in fails its CRC
     (or decode), and everything from that record on is dropped *)
  let pos = String.length raw / 2 in
  let garbled = Bytes.of_string raw in
  Bytes.set garbled pos (Char.chr (Char.code (Bytes.get garbled pos) lxor 0x5a));
  write_file path (Bytes.to_string garbled);
  let info = Stream_trace.file_info path in
  Alcotest.(check bool) "corruption detected" true info.Stream_trace.fi_dropped_tail;
  Alcotest.(check bool) "some entries dropped" true
    (info.Stream_trace.fi_entries < n);
  let got = collect (Stream_trace.of_file path) in
  Alcotest.(check int) "stream yields exactly the validated entries"
    info.Stream_trace.fi_entries (Array.length got);
  Alcotest.(check bool) "surviving prefix is entry-exact" true
    (got = Array.sub entries 0 (Array.length got))

let test_pptrc_foreign_files () =
  let dir = tmpdir () in
  let check_rejected what content =
    let path = Filename.concat dir (what ^ ".bin") in
    write_file path content;
    Alcotest.(check bool)
      (what ^ ": of_file raises Invalid_argument")
      true
      (raises_invalid (fun () -> Stream_trace.of_file path));
    Alcotest.(check bool)
      (what ^ ": file_info raises Invalid_argument")
      true
      (raises_invalid (fun () -> Stream_trace.file_info path))
  in
  check_rejected "empty" "";
  check_rejected "garbage" "definitely not a trace file";
  (* the store journal shares the CRC discipline but not the magic *)
  check_rejected "journal" (Store.magic ^ "tail");
  (* right magic, corrupt header *)
  let path = Filename.concat dir "corrupt-header.pptrc" in
  record_to ~path ~name:"tpcc" ~chunk_size:64 (entries_of "tpcc" 100);
  let raw = Bytes.of_string (read_file path) in
  let pos = String.length Stream_trace.magic + 6 in
  Bytes.set raw pos (Char.chr (Char.code (Bytes.get raw pos) lxor 0xff));
  write_file path (Bytes.to_string raw);
  Alcotest.(check bool) "corrupt header rejected" true
    (raises_invalid (fun () -> Stream_trace.of_file path))

(* --- defined empty-stream behaviour ------------------------------------- *)

let test_empty_stream () =
  let producer () () = Alcotest.fail "an empty stream must never pull" in
  let s () = Stream_trace.of_producer ~name:"none" ~n:0 producer in
  Alcotest.(check bool) "analyze returns zero_stats" true
    (Stream_trace.analyze (s ()) = Trace.zero_stats);
  let chunks = ref 0 in
  let (_ : int) =
    Stream_trace.fold_chunks (s ()) ~init:0 ~f:(fun acc ~index:_ _ ->
        incr chunks;
        acc)
  in
  Alcotest.(check int) "fold_chunks never calls f" 0 !chunks;
  (* an empty recording round-trips to an empty stream *)
  let path = Filename.concat (tmpdir ()) "empty.pptrc" in
  record_to ~path ~name:"none" ~chunk_size:16 [||];
  let info = Stream_trace.file_info path in
  Alcotest.(check int) "empty file: 0 entries" 0 info.Stream_trace.fi_entries;
  Alcotest.(check bool) "empty file: zero stats" true
    (Stream_trace.analyze (Stream_trace.of_file path) = Trace.zero_stats)

(* --- NDJSON pipe source -------------------------------------------------- *)

let with_fd path f =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

let test_ndjson_source () =
  let dir = tmpdir () in
  let path = Filename.concat dir "t.ndjson" in
  (* CRLF line endings and blank lines are tolerated; write defaults
     to false *)
  write_file path
    "{\"addr\":0,\"write\":false}\r\n\n{\"addr\":64}\n{\"addr\":128,\"write\":true}\n";
  let got =
    with_fd path (fun fd ->
        collect (Stream_trace.of_ndjson_fd ~chunk_size:2 ~name:"pipe" fd))
  in
  Alcotest.(check bool) "three entries, CRLF and blanks skipped" true
    (got
    = [|
        { Trace.addr = 0; write = false };
        { Trace.addr = 64; write = false };
        { Trace.addr = 128; write = true };
      |]);
  let rejected what content =
    let path = Filename.concat dir (what ^ ".ndjson") in
    write_file path content;
    Alcotest.(check bool)
      (what ^ ": raises Invalid_argument")
      true
      (with_fd path (fun fd ->
           raises_invalid (fun () ->
               collect (Stream_trace.of_ndjson_fd ~name:"pipe" fd))))
  in
  rejected "malformed" "not json\n";
  rejected "negative-addr" "{\"addr\":-4}\n";
  (* 2^61: past the PPTRC01 varint's domain, once silently corrupted *)
  rejected "addr-2^61" "{\"addr\":0}\n{\"addr\":2305843009213693952}\n";
  rejected "missing-addr" "{\"write\":true}\n";
  rejected "bool-addr" "{\"addr\":true}\n"

let test_write_file_rejects_out_of_domain () =
  let path = Filename.concat (tmpdir ()) "domain.pptrc" in
  let record addr =
    raises_invalid (fun () ->
        record_to ~path ~name:"domain" ~chunk_size:4
          [| { Trace.addr = 64; write = false }; { Trace.addr; write = true } |])
  in
  Alcotest.(check bool) "2^61 rejected" true (record (Stream_trace.max_addr + 1));
  Alcotest.(check bool) "max_int rejected" true (record max_int);
  Alcotest.(check bool) "negative rejected" true (record (-64));
  Alcotest.(check bool) "2^61 - 1 accepted" false (record Stream_trace.max_addr);
  let got = collect (Stream_trace.of_file path) in
  Alcotest.(check bool) "the largest address round-trips" true
    (got
    = [| { Trace.addr = 64; write = false };
         { Trace.addr = Stream_trace.max_addr; write = true } |])

(* --- packed, reused chunks ---------------------------------------------- *)

let test_full_chunks_share_one_buffer () =
  let entries = entries_of "tpcc" 23_000 in
  let path = Filename.concat (tmpdir ()) "reuse.pptrc" in
  record_to ~path ~name:"tpcc" ~chunk_size:1000 entries;
  List.iter
    (fun (what, stream) ->
      (* this test alone keeps the previous chunk, to compare identity *)
      let prev = ref [||] and reused = ref 0 and lengths = ref [] in
      let (_ : unit) =
        Stream_trace.fold_chunks stream ~init:() ~f:(fun () ~index chunk ->
            if index > 0 && Array.length chunk = 5000 && chunk == !prev then incr reused;
            prev := chunk;
            lengths := Array.length chunk :: !lengths)
      in
      Alcotest.(check (list int)) (what ^ ": chunk lengths are entry counts")
        [ 5000; 5000; 5000; 5000; 3000 ] (List.rev !lengths);
      Alcotest.(check int) (what ^ ": every later full chunk reuses the buffer") 3
        !reused)
    [
      ("file", Stream_trace.of_file ~chunk_size:5000 path);
      ("trace", Stream_trace.of_trace ~chunk_size:5000 ~name:"tpcc" (Trace.of_entries entries));
    ]

let test_replay_allocation_gate () =
  let n = 200_000 in
  let path = Filename.concat (tmpdir ()) "alloc.pptrc" in
  let gen = Registry.build "spec2000-mix" in
  Stream_trace.write_file ~path ~name:"spec2000-mix" ~n
    ~next:(fun () ->
      let a = Gen.next gen in
      { Trace.addr = a.Access.addr; write = a.Access.write })
    ();
  let replay () =
    Missrate.simulate_stream ~warmup:false ~stream:(Stream_trace.of_file path)
      ~l1_size:(16 * 1024) ~l2_size:(1024 * 1024) ()
  in
  let reference = replay () in
  let w0 = Gc.minor_words () in
  let point = replay () in
  let per_access = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool) "replays agree" true (point = reference);
  (* about 0.01 here; a per-entry record, option, boxed CRC step or
     per-miss closure each costs whole words per access *)
  if per_access > 1.0 then
    Alcotest.failf "replay allocates %.2f minor words per access (gate: 1)" per_access

(* --- checkpointed streaming -------------------------------------------- *)

let test_checkpoint_resume_in_process () =
  let dir = tmpdir () in
  let workload = "tpcc" and n = 8_000 in
  let l1_size = 4 * 1024 and l2_size = 32 * 1024 in
  let stream () = Wstream.of_workload ~chunk_size:500 ~workload ~n () in
  let run () =
    Missrate.simulate_stream ~stream:(stream ()) ~l1_size ~l2_size ()
  in
  let reference = run () in
  let with_journal ~resume f =
    let j = if resume then Store.open_ ~dir else Store.open_fresh ~dir in
    Sweep.set_journal (Some j);
    let r =
      Fun.protect
        ~finally:(fun () ->
          Sweep.set_journal None;
          Store.close j)
        f
    in
    (r, j)
  in
  let first, j1 = with_journal ~resume:false run in
  Alcotest.(check bool) "journaled run equals plain run" true (first = reference);
  Alcotest.(check int) "one slot per chunk" (n / 500) (Store.appended j1);
  let second, j2 = with_journal ~resume:true run in
  Alcotest.(check bool) "resumed run equals plain run" true (second = reference);
  Alcotest.(check int) "every chunk served from the journal" (n / 500)
    (Store.served j2);
  Alcotest.(check int) "nothing recomputed" 0 (Store.appended j2);
  (* a different consumer geometry must miss every slot (salted keys) *)
  let third, j3 =
    with_journal ~resume:true (fun () ->
        Missrate.simulate_stream ~stream:(stream ()) ~l1_size ~l2_size:(64 * 1024) ())
  in
  Alcotest.(check bool) "different geometry computes fresh slots" true
    (Store.appended j3 = n / 500 && third <> reference)

(* --- kill-and-resume chaos gate ----------------------------------------- *)

(* Child mode: re-executed with [stream_child_env] set to
   "trace_file:ckpt_dir:out_file", run a checkpointed streamed
   simulation with a ~30 ms per-chunk handicap so a SIGKILL lands
   mid-run, then write the result line.  Must run before Alcotest so
   the child never spawns a domain. *)
let stream_child_env = "PPCACHE_TEST_STREAM_CHILD"

let stream_child_main spec : unit =
  match String.split_on_char ':' spec with
  | [ trace_file; ckpt_dir; out_file ] ->
    let j = Store.open_ ~dir:ckpt_dir in
    Sweep.set_journal (Some j);
    let s = Stream_trace.of_file ~chunk_size:100 trace_file in
    let h, count =
      Stream_trace.resumable_fold ~salt:"chaos" s ~init:(make_hierarchy (), 0)
        ~f:(fun (h, c) ~index:_ chunk ->
          Unix.sleepf 0.03;
          for i = 0 to Array.length chunk - 1 do
            let e = chunk.(i) in
            ignore
              (Hierarchy.access h (Stream_trace.addr e)
                 ~write:(Stream_trace.is_write e))
          done;
          (h, c + Array.length chunk))
    in
    let served = Store.served j in
    Sweep.set_journal None;
    Store.close j;
    let oc = open_out_bin out_file in
    Printf.fprintf oc "%d %.9f %.9f\nserved %d\n" count (Hierarchy.l1_miss_rate h)
      (Hierarchy.l2_local_miss_rate h) served;
    close_out oc
  | _ -> failwith ("bad " ^ stream_child_env ^ " spec: " ^ spec)

let test_kill_and_resume_streaming () =
  let dir = tmpdir () in
  let trace_file = Filename.concat dir "t.pptrc" in
  let ckpt_dir = Filename.concat dir "ck" in
  let out_file = Filename.concat dir "out.txt" in
  let n = 4_000 in
  let entries = entries_of "spec2000-mix" n in
  record_to ~path:trace_file ~name:"spec2000-mix" ~chunk_size:100 entries;
  (* the uninterrupted reference, computed in process *)
  let expected =
    let h = make_hierarchy () in
    Trace.replay_hierarchy (Trace.of_entries entries) h;
    Printf.sprintf "%d %.9f %.9f" n (Hierarchy.l1_miss_rate h)
      (Hierarchy.l2_local_miss_rate h)
  in
  let env =
    Array.append (Unix.environment ())
      [|
        stream_child_env ^ "=" ^ trace_file ^ ":" ^ ckpt_dir ^ ":" ^ out_file;
      |]
  in
  let spawn () =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin Unix.stdout Unix.stderr
  in
  let child = spawn () in
  (* kill only once slots are demonstrably on disk — the per-chunk
     handicap (40 chunks x 30 ms) guarantees plenty of unsimulated
     tail remains *)
  let journal = Filename.concat ckpt_dir Store.store_name in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec await () =
    let progressed =
      try (Unix.stat journal).Unix.st_size > 256 with Unix.Unix_error _ -> false
    in
    if progressed then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "stream child journaled nothing within 30 s"
    else begin
      Unix.sleepf 0.01;
      await ()
    end
  in
  await ();
  Unix.kill child Sys.sigkill;
  ignore (Unix.waitpid [] child);
  Alcotest.(check bool) "child died mid-run (no result written)" true
    (not (Sys.file_exists out_file));
  (* resume: the relaunched child must serve the journaled chunks and
     finish with the uninterrupted run's exact numbers *)
  let child2 = spawn () in
  let _, status = Unix.waitpid [] child2 in
  Alcotest.(check bool) "resumed child exited cleanly" true
    (status = Unix.WEXITED 0);
  (match String.split_on_char '\n' (read_file out_file) with
  | result :: served_line :: _ ->
    Alcotest.(check string) "resumed run byte-identical to uninterrupted" expected
      result;
    let served =
      match String.split_on_char ' ' served_line with
      | [ "served"; k ] -> int_of_string k
      | _ -> Alcotest.fail ("bad served line: " ^ served_line)
    in
    Alcotest.(check bool) "resume served journaled chunks" true (served > 0);
    Alcotest.(check bool) "but not every chunk (the kill was mid-run)" true
      (served < n / 100)
  | _ -> Alcotest.fail "child wrote no parseable result")

(* --- suite --------------------------------------------------------------- *)

let suite =
  [
    Alcotest.test_case "golden matrix: streamed = materialised at chunk 1/7/4096/whole"
      `Quick test_golden_identity_matrix;
    Alcotest.test_case "wrapped workload streams Gen.take's entries" `Quick
      test_producer_matches_take;
    Alcotest.test_case "Profile.of_stream equals build field-for-field" `Quick
      test_profile_stream_equality;
    Alcotest.test_case "simulate_stream equals simulate bitwise (any chunk, any jobs)"
      `Quick test_simulate_stream_equality;
    Generators.to_alcotest chunk_invariance_prop;
    Generators.to_alcotest pptrc_packed_roundtrip_prop;
    Alcotest.test_case "pptrc: round-trip is entry-exact" `Quick test_pptrc_roundtrip;
    Alcotest.test_case "pptrc: torn tail is dropped, prefix survives" `Quick
      test_pptrc_truncated_tail;
    Alcotest.test_case "pptrc: mid-file corruption drops the tail, never garbles"
      `Quick test_pptrc_corrupt_middle;
    Alcotest.test_case "pptrc: foreign and corrupt-headered files are rejected"
      `Quick test_pptrc_foreign_files;
    Alcotest.test_case "empty stream: defined zero stats, f never called" `Quick
      test_empty_stream;
    Alcotest.test_case "ndjson: pipe source parses, skips blanks, rejects garbage"
      `Quick test_ndjson_source;
    Alcotest.test_case "pptrc: write_file rejects addresses outside [0, 2^61)" `Quick
      test_write_file_rejects_out_of_domain;
    Alcotest.test_case "chunks: every full chunk is one reused buffer" `Quick
      test_full_chunks_share_one_buffer;
    Alcotest.test_case "alloc gate: file replay allocates <= 1 minor word/access"
      `Quick test_replay_allocation_gate;
    Alcotest.test_case "checkpoint: chunk slots resume byte-identically" `Quick
      test_checkpoint_resume_in_process;
    Alcotest.test_case "chaos: SIGKILL mid-chunk, resume byte-identical" `Quick
      test_kill_and_resume_streaming;
  ]
