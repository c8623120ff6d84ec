(* CLI suite: the built ppcache binary, driven as a user drives it.

   A usage error must exit 2 with its message before it touches any
   file: the shared flags are all checked, the --checkpoint journal or
   serve's --store opened, and the cache sizes, the cache configuration
   and serve's --socket path checked, before the --events sink
   truncates its file or a report is written.  The flag surface of every subcommand is pinned, read from the
   OPTIONS section of its --help=plain page, so a flag cannot be added
   or dropped by accident. *)

let tmp_counter = ref 0

let tmpdir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ppcli-test-%d-%d" (Unix.getpid ()) !tmp_counter)
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

(* the CLI, built beside this suite: _build/default/{test,bin} *)
let ppcache_exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "ppcache.exe")

(* [ppcache args] with stdin from /dev/null: exit status, stdout and
   stderr (kept in [dir]) *)
let run_ppcache ~dir args =
  let out = Filename.concat dir "stdout" and err = Filename.concat dir "stderr" in
  let open_out path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let o = open_out out and e = open_out err in
  let pid =
    Unix.create_process ppcache_exe (Array.of_list (ppcache_exe :: args)) null o e
  in
  List.iter Unix.close [ null; o; e ];
  let _, status = Unix.waitpid [] pid in
  (status, read_file out, read_file err)

(* --- usage errors ----------------------------------------------------- *)

(* the line an Invalid_argument found in an argument's value ends with *)
let usage_hint = "ppcache: exiting 2 (usage); see --help\n"

let test_usage_errors_leave_events_alone () =
  let dir = tmpdir () in
  let events = Filename.concat dir "events.ndjson" in
  let plain = Filename.concat dir "plain-file" in
  write_file plain "a regular file, not a journal directory\n";
  let held = "fourteen bytes" in
  let not_a_dir = Unix.error_message Unix.ENOTDIR in
  let no_goldens = Filename.concat dir "no-goldens" and report = Filename.concat dir "report.json" in
  let no_goldens_message =
    Printf.sprintf
      "ppcache: --golden-dir %s: no such directory (the default is relative to the \
       repository root)\n"
      no_goldens
  in
  write_file report held;
  List.iter
    (fun (args, message) ->
      write_file events held;
      let status, _, err = run_ppcache ~dir (args @ [ "--events"; events ]) in
      let cmd = String.concat " " args in
      Alcotest.(check bool) (cmd ^ ": exit 2") true (status = Unix.WEXITED 2);
      Alcotest.(check string) (cmd ^ ": its usage message") message err;
      Alcotest.(check string) (cmd ^ ": the --events file is untouched") held
        (read_file events))
    [
      ( [ "run"; "schemes"; "--quick"; "--resume" ],
        "ppcache: --resume requires --checkpoint DIR\n" );
      ( [ "run"; "schemes"; "--quick"; "--checkpoint"; plain ],
        Printf.sprintf "ppcache: --checkpoint %s: %s\n" plain not_a_dir );
      ( [ "serve"; "--quick"; "--store"; plain ],
        Printf.sprintf "ppcache: --store %s: %s\n" plain not_a_dir );
      ( [ "simulate"; "--l1"; "3"; "--accesses"; "1000" ],
        "ppcache: Cache.create: size not a power of two\n" ^ usage_hint );
      ( [ "serve"; "--quick"; "--socket"; plain ],
        Printf.sprintf "ppcache: Server.serve_unix_socket: %s exists and is not a socket\n"
          plain
        ^ usage_hint );
      ( [ "verify"; "golden"; "--quick"; "--golden-dir"; no_goldens; "--report-json"; report ],
        no_goldens_message );
      ( [ "verify"; "golden"; "--update-golden"; "--golden-dir"; no_goldens;
          "--report-json"; report ],
        no_goldens_message );
    ];
  Alcotest.(check string) "the --report-json file is untouched" held (read_file report);
  Alcotest.(check bool) "--update-golden made no directory" false (Sys.file_exists no_goldens);
  Alcotest.(check string) "the file at --socket survives"
    "a regular file, not a journal directory\n" (read_file plain)

(* A cache configuration the model refuses exits 2 before the session
   starts, so no report is written. *)
let test_bad_config_writes_no_report () =
  let dir = tmpdir () in
  let metrics = Filename.concat dir "metrics.json" in
  let status, _, err = run_ppcache ~dir [ "characterize"; "--size"; "3"; "--metrics-json"; metrics ] in
  Alcotest.(check bool) "exit 2" true (status = Unix.WEXITED 2);
  Alcotest.(check string) "its usage message"
    ("ppcache: Config.make: size_bytes not a power of two\n" ^ usage_hint)
    err;
  Alcotest.(check bool) "no --metrics-json file" false (Sys.file_exists metrics)

(* --- the flag surface ------------------------------------------------- *)

(* Each subcommand's long flags, sorted. *)
let pinned_flags =
  [
    ( [ "run" ],
      [
        "--checkpoint"; "--csv"; "--deadline"; "--events"; "--fail-fast"; "--jobs";
        "--metrics-json"; "--metrics-prom"; "--progress"; "--quick"; "--resume";
        "--retries"; "--trace"; "--trace-json";
      ] );
    ([ "list" ], []);
    ( [ "characterize" ],
      [
        "--assoc"; "--block"; "--metrics-json"; "--size"; "--tox"; "--trace";
        "--trace-json"; "--vth";
      ] );
    ( [ "simulate" ],
      [
        "--accesses"; "--checkpoint"; "--chunk"; "--deadline"; "--events"; "--jobs";
        "--l1"; "--l2"; "--metrics-json"; "--progress"; "--resume"; "--retries";
        "--trace"; "--trace-file"; "--trace-json"; "--trace-stdin"; "--workload";
      ] );
    ( [ "trace"; "record" ],
      [ "--accesses"; "--chunk"; "--from-ndjson"; "--out"; "--seed"; "--workload" ] );
    ([ "trace"; "info" ], []);
    ( [ "verify" ],
      [
        "--checkpoint"; "--deadline"; "--events"; "--golden-dir"; "--jobs";
        "--metrics-json"; "--metrics-prom"; "--progress"; "--quick"; "--report-json";
        "--resume"; "--retries"; "--seeds"; "--trace"; "--trace-json";
        "--update-golden";
      ] );
    ([ "workloads" ], []);
    ([ "store"; "info" ], []);
    ([ "store"; "compact" ], []);
    ( [ "serve" ],
      [
        "--compact-ratio"; "--deadline"; "--events"; "--global-queue"; "--jobs";
        "--max-conns"; "--metrics-json"; "--metrics-prom"; "--progress"; "--queue";
        "--quick"; "--retries"; "--socket"; "--store"; "--trace"; "--trace-json";
        "--write-timeout";
      ] );
  ]

(* The long flags of a plain help page's OPTIONS section.  An option
   entry is a line indented by exactly seven spaces that starts with a
   dash, like "       -j N, --jobs=N (absent=1)"; description text is
   indented further, and other sections (NAME, COMMON OPTIONS) are
   skipped, so a flag named in prose is not read as offered. *)
let long_flags help =
  let entry line =
    String.length line > 8 && String.sub line 0 8 = "       -"
  in
  let flags_of line =
    String.split_on_char ' ' (String.map (fun c -> if c = ',' then ' ' else c) line)
    |> List.filter (fun w -> String.length w > 2 && String.sub w 0 2 = "--")
    |> List.map (fun w ->
           match String.index_opt w '=' with Some i -> String.sub w 0 i | None -> w)
  in
  let _, flags =
    List.fold_left
      (fun (section, flags) line ->
        if line <> "" && line.[0] <> ' ' then (line, flags)
        else if section = "OPTIONS" && entry line then (section, flags_of line @ flags)
        else (section, flags))
      ("", []) (String.split_on_char '\n' help)
  in
  List.sort compare flags

let test_flag_surface_pinned () =
  let dir = tmpdir () in
  List.iter
    (fun (cmd, want) ->
      let name = String.concat " " cmd in
      let status, help, _ = run_ppcache ~dir (cmd @ [ "--help=plain" ]) in
      Alcotest.(check bool) (name ^ " --help=plain: exit 0") true (status = Unix.WEXITED 0);
      Alcotest.(check (list string)) (name ^ ": long flags") want (long_flags help))
    pinned_flags

(* --- trace record ------------------------------------------------------ *)

(* [trace record --workload] draws packed entries through
   [Stream.of_workload] and [Stream_trace.record_stream]; its file must
   be the bytes [Stream_trace.write_file] writes from the boxed
   accesses of [Gen.next], at a chunk that divides nothing evenly and
   at the default. *)
let test_trace_record_bytes () =
  let module Gen = Nmcache_workload.Gen in
  let module Registry = Nmcache_workload.Registry in
  let module Stream_trace = Nmcache_cachesim.Stream_trace in
  let dir = tmpdir () in
  List.iter
    (fun (workload, n, chunk, seed) ->
      let out = Filename.concat dir "cli.pptrc" and ref_path = Filename.concat dir "ref.pptrc" in
      let status, stdout, _ =
        run_ppcache ~dir
          [ "trace"; "record"; "--workload"; workload; "--accesses"; string_of_int n;
            "--chunk"; string_of_int chunk; "--seed"; Int64.to_string seed; "--out"; out ]
      in
      Alcotest.(check bool) (workload ^ ": exit 0") true (status = Unix.WEXITED 0);
      Alcotest.(check string) (workload ^ ": its summary line")
        (Printf.sprintf "recorded %s: %d accesses to %s (chunk %d)\n" workload n out chunk)
        stdout;
      let gen = Registry.build ~seed workload in
      Stream_trace.write_file ~path:ref_path ~name:workload ~chunk_size:chunk
        ~next:(fun () ->
          let a = Gen.next gen in
          { Nmcache_cachesim.Trace.addr = a.Nmcache_workload.Access.addr;
            write = a.Nmcache_workload.Access.write })
        ~n ();
      Alcotest.(check bool) (workload ^ ": the bytes write_file writes") true
        (read_file out = read_file ref_path);
      Alcotest.(check bool) (workload ^ ": no spool left behind") false
        (Sys.file_exists (out ^ ".spool")))
    [ ("tpcc", 100_003, 777, 7L); ("spec2000-mix", 70_000, 65_536, 42L); ("specweb", 0, 100, 3L) ]

(* --- simulate --workload resumes -------------------------------------- *)

(* A workload streams through [Missrate.simulate_stream], so
   --checkpoint journals one slot per chunk: the run with --resume
   serves every slot, computes none, and prints the bytes of the first
   run and of a run with no journal. *)
let test_simulate_workload_resumes () =
  let dir = tmpdir () in
  let ck = Filename.concat dir "ck" in
  let plain_args = [ "simulate"; "--workload"; "tpcc"; "-n"; "200000"; "--chunk"; "10000" ] in
  let args = plain_args @ [ "--checkpoint"; ck ] in
  let summary counts =
    Printf.sprintf "ppcache: checkpoint %s: %s\n" (Filename.concat ck "store.ppck") counts
  in
  let status, first, err = run_ppcache ~dir args in
  Alcotest.(check bool) "first run: exit 0" true (status = Unix.WEXITED 0);
  Alcotest.(check string) "first run: one slot per chunk appended"
    (summary "0 replayed, 0 served, 20 appended") err;
  let status, plain, _ = run_ppcache ~dir plain_args in
  Alcotest.(check bool) "no journal: exit 0" true (status = Unix.WEXITED 0);
  Alcotest.(check string) "no journal: the same stdout" plain first;
  let status, resumed, err = run_ppcache ~dir (args @ [ "--resume" ]) in
  Alcotest.(check bool) "resumed: exit 0" true (status = Unix.WEXITED 0);
  Alcotest.(check string) "resumed: byte-identical stdout" first resumed;
  Alcotest.(check string) "resumed: every slot served, none appended"
    (summary "20 replayed, 20 served, 0 appended") err

let suite =
  [
    Alcotest.test_case "usage errors leave an existing --events file alone" `Quick
      test_usage_errors_leave_events_alone;
    Alcotest.test_case "a refused cache configuration writes no report" `Quick
      test_bad_config_writes_no_report;
    Alcotest.test_case "every subcommand offers exactly its pinned flags" `Quick
      test_flag_surface_pinned;
    Alcotest.test_case "trace record --workload writes write_file's bytes" `Quick
      test_trace_record_bytes;
    Alcotest.test_case "simulate --workload resumes from its checkpoint byte for byte"
      `Quick test_simulate_workload_resumes;
  ]
