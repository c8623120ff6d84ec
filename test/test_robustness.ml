(* Robustness suite for the production serve/store work: the lockfile
   TOCTOU regression (two racing processes, one stale lock, exactly one
   winner), store live/dead accounting and crash-ordered compaction,
   admission-limiter shedding, concurrent socket connections, and
   NDJSON trace recording.

   The lock-race test re-execs this binary (fork is unavailable once
   Alcotest may have spawned a domain); the child mode must be
   dispatched from test_main before Alcotest runs. *)

module Lockfile = Nmcache_engine.Lockfile
module Store = Nmcache_engine.Store
module Server = Nmcache_engine.Server
module Pool = Nmcache_engine.Pool
module Json = Nmcache_engine.Json
module Stream = Nmcache_cachesim.Stream_trace
module Service = Core.Service

let tmp_counter = ref 0

let tmpdir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pprobust-test-%d-%d" (Unix.getpid ()) !tmp_counter)
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

let dead_pid () =
  let pid =
    Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout Unix.stderr
  in
  ignore (Unix.waitpid [] pid);
  pid

(* --- lockfile TOCTOU race ---------------------------------------------- *)

(* Child mode: both children stall in the stale-break window (after
   observing the dead-PID lock, before the tombstone rename) until the
   parent opens the barrier — the exact interleaving the unlink-based
   breaker got wrong, reproduced deterministically instead of by
   timing luck. *)
let lock_child_env = "PPCACHE_TEST_LOCK_CHILD"

let lock_child_main spec : unit =
  match String.split_on_char ':' spec with
  | [ lock_path; barrier_dir; result_file ] ->
    let entered = ref false in
    (Lockfile.stale_break_hook :=
       fun () ->
         if not !entered then begin
           entered := true;
           write_file
             (Filename.concat barrier_dir
                (Printf.sprintf "%d.window" (Unix.getpid ())))
             "";
           let go = Filename.concat barrier_dir "go" in
           let deadline = Unix.gettimeofday () +. 20.0 in
           while
             (not (Sys.file_exists go)) && Unix.gettimeofday () < deadline
           do
             Unix.sleepf 0.005
           done
         end);
    (match Lockfile.acquire ~path:lock_path with
    | lock ->
      write_file result_file "acquired";
      (* hold while the loser resolves: were the break not atomic, the
         loser would acquire concurrently, not sequentially *)
      Unix.sleepf 2.0;
      Lockfile.release lock
    | exception Lockfile.Locked _ -> write_file result_file "locked")
  | _ -> failwith ("bad " ^ lock_child_env ^ " spec: " ^ spec)

let test_lock_break_race () =
  let dir = tmpdir () in
  let lock_path = Filename.concat dir "x.lock" in
  write_file lock_path (Printf.sprintf "%d\n" (dead_pid ()));
  let spawn i =
    let result = Filename.concat dir (Printf.sprintf "result%d" i) in
    let env =
      Array.append (Unix.environment ())
        [| lock_child_env ^ "=" ^ lock_path ^ ":" ^ dir ^ ":" ^ result |]
    in
    let pid =
      Unix.create_process_env Sys.executable_name
        [| Sys.executable_name |]
        env Unix.stdin Unix.stdout Unix.stderr
    in
    (pid, result)
  in
  let p1, r1 = spawn 1 in
  let p2, r2 = spawn 2 in
  (* both children must observe the same stale lock and reach the break
     window before either is allowed to rename *)
  let windows () =
    List.length
      (List.filter
         (fun f -> Filename.check_suffix f ".window")
         (Array.to_list (Sys.readdir dir)))
  in
  let deadline = Unix.gettimeofday () +. 20.0 in
  while windows () < 2 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Alcotest.(check int) "both children reached the break window" 2 (windows ());
  write_file (Filename.concat dir "go") "";
  ignore (Unix.waitpid [] p1);
  ignore (Unix.waitpid [] p2);
  let outcome r = try read_file r with Sys_error _ -> "missing" in
  let outcomes = List.sort compare [ outcome r1; outcome r2 ] in
  Alcotest.(check (list string))
    "exactly one child acquires, the other reports Locked"
    [ "acquired"; "locked" ] outcomes;
  (* the directory is not bricked: the winner released, we can acquire *)
  let l = Lockfile.acquire ~path:lock_path in
  Lockfile.release l

(* --- store accounting + crash-ordered compaction ------------------------ *)

let dup_payload = Marshal.to_string 4242 []

let test_store_accounting_and_compaction () =
  let dir = tmpdir () in
  let s = Store.open_ ~dir in
  Store.add s ~ns:"p" ~key:"a" 1;
  Store.add s ~ns:"p" ~key:"b" 2;
  Store.add s ~ns:"p" ~key:"c" 3;
  let path = Store.path s in
  Store.close s;
  (* duplicate every record (skip the 8-byte magic): valid CRCs, all
     shadowed by the originals under first-write-wins *)
  let raw = read_file path in
  write_file path (raw ^ String.sub raw 8 (String.length raw - 8));
  let s = Store.open_ ~dir in
  Alcotest.(check int) "live entries" 3 (Store.entries s);
  Alcotest.(check int) "dead records counted" 3 (Store.dead_records s);
  Alcotest.(check int)
    "dead bytes = live bytes (exact duplicates)" (Store.live_bytes s)
    (Store.dead_bytes s);
  Alcotest.(check int) "journal segment" 1 (Store.segment_version s);
  let dead_bytes_before = Store.dead_bytes s in
  let steps = ref [] in
  let stats = Store.compact ~on_step:(fun i -> steps := i :: !steps) s in
  Alcotest.(check (list int))
    "kill seam visits before-tmp, each record, fsync, rename"
    [ 0; 1; 2; 3; 4; 5 ] (List.rev !steps);
  Alcotest.(check int) "live written" 3 stats.Store.live;
  Alcotest.(check int) "dead reclaimed" 3 stats.Store.reclaimed_records;
  Alcotest.(check int) "bytes reclaimed" dead_bytes_before
    stats.Store.reclaimed_bytes;
  Alcotest.(check int) "before = magic + live + dead"
    (8 + Store.live_bytes s + dead_bytes_before)
    stats.Store.before_bytes;
  Alcotest.(check int) "after = magic + live" (8 + Store.live_bytes s)
    stats.Store.after_bytes;
  Alcotest.(check int) "compacted segment" 2 (Store.segment_version s);
  Alcotest.(check int) "no dead left" 0 (Store.dead_records s);
  Alcotest.(check (option int)) "gets unchanged" (Some 2)
    (Store.lookup s ~ns:"p" ~key:"b");
  (* the compacted segment is append-able *)
  Store.add s ~ns:"p" ~key:"d" 4;
  Store.close s;
  Alcotest.(check string) "PPSTOR02 magic on disk" Store.magic_compacted
    (String.sub (read_file path) 0 8);
  let s = Store.open_ ~dir in
  Alcotest.(check int) "reopen replays compacted + appended" 4 (Store.entries s);
  Alcotest.(check int) "version survives reopen" 2 (Store.segment_version s);
  Alcotest.(check (option int)) "post-compaction append survived" (Some 4)
    (Store.lookup s ~ns:"p" ~key:"d");
  Store.close s

(* --- store churn property ---------------------------------------------- *)

(* Random interleavings of put / reopen / compact / dead-duplicate /
   torn-tail against a sequential first-write-wins model: lookups,
   entry counts and dead-record accounting must match the model after
   every operation, and compaction must never change a get. *)
type churn_op = Put of int * int | Reopen | Compact | Dup of int | Torn

let churn_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun k v -> Put (k, v)) (int_bound 7) (int_bound 99));
        (2, return Reopen);
        (1, return Compact);
        (2, map (fun k -> Dup k) (int_bound 7));
        (1, return Torn);
      ])

let churn_print op =
  match op with
  | Put (k, v) -> Printf.sprintf "Put(k%d,%d)" k v
  | Reopen -> "Reopen"
  | Compact -> "Compact"
  | Dup k -> Printf.sprintf "Dup(k%d)" k
  | Torn -> "Torn"

let churn_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map churn_print ops))
    QCheck.Gen.(list_size (int_range 1 40) churn_op_gen)

let store_churn_property =
  QCheck.Test.make ~count:25 ~name:"store churn matches first-write-wins model"
    churn_arb
    (fun ops ->
      let dir = tmpdir () in
      let key k = Printf.sprintf "k%d" k in
      let store = ref (Store.open_ ~dir) in
      let model = ref [] (* (key idx, value), first write wins *) in
      let dead = ref 0 in
      let reopen_with tail =
        let path = Store.path !store in
        Store.close !store;
        if tail <> "" then begin
          let oc =
            open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
          in
          output_string oc tail;
          close_out oc
        end;
        store := Store.open_ ~dir
      in
      let agree () =
        List.for_all
          (fun (k, v) -> Store.lookup !store ~ns:"p" ~key:(key k) = Some v)
          !model
        && Store.entries !store = List.length !model
        && Store.dead_records !store = !dead
      in
      let ok =
        List.for_all
          (fun op ->
            (match op with
            | Put (k, v) ->
              Store.add !store ~ns:"p" ~key:(key k) v;
              if not (List.mem_assoc k !model) then model := (k, v) :: !model
            | Reopen -> reopen_with ""
            | Compact ->
              ignore (Store.compact !store);
              dead := 0
            | Dup k ->
              (* a raw duplicate is dead only if the key already lives;
                 for an absent key it would *be* the first write *)
              if List.mem_assoc k !model then begin
                reopen_with
                  (Store.encode_record ~ns:"p" ~key:(key k) ~value:dup_payload);
                incr dead
              end
            | Torn ->
              let r =
                Store.encode_record ~ns:"p" ~key:"torn" ~value:dup_payload
              in
              reopen_with (String.sub r 0 (String.length r - 3)));
            agree ())
          ops
      in
      (* final compaction + reopen must preserve every get *)
      ignore (Store.compact !store);
      dead := 0;
      let ok = ok && agree () in
      reopen_with "";
      let ok = ok && agree () in
      Store.close !store;
      ok)

(* --- admission limiter -------------------------------------------------- *)

let run_serve ?limiter ?shed_response ~queue lines =
  let dir = tmpdir () in
  let inp = Filename.concat dir "in.ndjson" in
  let outp = Filename.concat dir "out.ndjson" in
  write_file inp (String.concat "" (List.map (fun l -> l ^ "\n") lines));
  let input = Unix.openfile inp [ Unix.O_RDONLY ] 0 in
  let output = open_out_bin outp in
  let handler ~line = ("R:" ^ line, fun () -> ()) in
  Fun.protect
    ~finally:(fun () ->
      Unix.close input;
      close_out output)
    (fun () ->
      ignore
        (Server.serve ~queue ?limiter ?shed_response ~pool:Pool.sequential
           ~handler
           ~crash_response:(fun ~line:_ _ -> "CRASH")
           ~overlong_response:(fun () -> "OVERLONG")
           ~input ~output ()));
  String.split_on_char '\n' (read_file outp)
  |> List.filter (fun l -> l <> "")

let test_limiter_sheds_in_order () =
  let lines = [ "a"; "b"; "c"; "d"; "e" ] in
  (* capacity 2 over one 5-line batch: the first two are served, the
     rest answered with the shed response, all in request order *)
  let out =
    run_serve
      ~limiter:(Server.make_limiter ~capacity:2)
      ~shed_response:(fun () -> "SHED")
      ~queue:8 lines
  in
  Alcotest.(check (list string))
    "grant first, shed the rest, in request order"
    [ "R:a"; "R:b"; "SHED"; "SHED"; "SHED" ]
    out;
  (* no limiter: nothing sheds *)
  let out = run_serve ~queue:8 lines in
  Alcotest.(check (list string))
    "unlimited serves everything"
    (List.map (fun l -> "R:" ^ l) lines)
    out

(* --- concurrent socket connections -------------------------------------- *)

let quick_ctx = lazy (Core.Context.quick ())

let make_service () =
  Service.create ~ctx:(Lazy.force quick_ctx) ~queue:8 ~jobs:1 ()

let amat_line i =
  Printf.sprintf
    {|{"id":"c%d","op":"amat","t_l1_ps":500,"t_l2_ps":2000,"t_mem_ps":60000,"m1":0.0%d,"m2":0.3}|}
    i
    ((i mod 9) + 1)

let ask service line =
  let resp, settle = Service.handle_line service line in
  settle ();
  resp

let test_socket_shed_connection () =
  let dir = tmpdir () in
  let sock = Filename.concat dir "s.sock" in
  let service = make_service () in
  Server.reset_drain ();
  let server =
    Thread.create
      (fun () ->
        Server.serve_unix_socket ~queue:4 ~max_conns:1 ~pool:Pool.sequential
          ~handler:(Service.handler service)
          ~crash_response:Service.crash_response
          ~overlong_response:Service.overlong_response
          ~shed_response:Service.shed_response ~path:sock ())
      ()
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists sock)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  (* client A occupies the single connection slot (a completed
     round-trip proves its connection thread is live) *)
  let fd_a = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd_a (Unix.ADDR_UNIX sock);
  let oc_a = Unix.out_channel_of_descr fd_a in
  let ic_a = Unix.in_channel_of_descr fd_a in
  output_string oc_a (amat_line 0 ^ "\n");
  flush oc_a;
  let a0 = input_line ic_a in
  (* client B arrives at capacity: exactly one shed line, then close *)
  let fd_b = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd_b (Unix.ADDR_UNIX sock);
  let ic_b = Unix.in_channel_of_descr fd_b in
  let b_line = input_line ic_b in
  let b_eof = try ignore (input_line ic_b); false with End_of_file -> true in
  close_in_noerr ic_b;
  (* A's stream continues, unaffected by the shed *)
  output_string oc_a (amat_line 1 ^ "\n");
  flush oc_a;
  let a1 = input_line ic_a in
  Unix.shutdown fd_a Unix.SHUTDOWN_SEND;
  let a_eof = try ignore (input_line ic_a); false with End_of_file -> true in
  close_in_noerr ic_a;
  Server.request_drain ();
  Thread.join server;
  Server.reset_drain ();
  let solo = make_service () in
  Alcotest.(check string) "first answer = solo" (ask solo (amat_line 0)) a0;
  Alcotest.(check string) "answer after shed = solo" (ask solo (amat_line 1)) a1;
  Alcotest.(check bool) "held connection closes at EOF" true a_eof;
  Alcotest.(check string) "shed line is the structured overloaded response"
    (Service.shed_response ()) b_line;
  Alcotest.(check bool) "shed connection closed after one line" true b_eof

let test_socket_concurrent_streams () =
  let dir = tmpdir () in
  let sock = Filename.concat dir "s.sock" in
  let service = make_service () in
  Server.reset_drain ();
  let server =
    Thread.create
      (fun () ->
        Server.serve_unix_socket ~queue:4 ~max_conns:4 ~pool:Pool.sequential
          ~handler:(Service.handler service)
          ~crash_response:Service.crash_response
          ~overlong_response:Service.overlong_response
          ~shed_response:Service.shed_response ~path:sock ())
      ()
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists sock)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  let slices =
    List.init 3 (fun c -> List.init 5 (fun i -> amat_line ((c * 10) + i)))
  in
  let results = Array.make 3 [] in
  let client c slice =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    let oc = Unix.out_channel_of_descr fd in
    let ic = Unix.in_channel_of_descr fd in
    List.iter (fun l -> output_string oc (l ^ "\n")) slice;
    flush oc;
    Unix.shutdown fd Unix.SHUTDOWN_SEND;
    let rec read_all acc =
      match input_line ic with
      | l -> read_all (l :: acc)
      | exception End_of_file -> List.rev acc
    in
    results.(c) <- read_all [];
    close_in_noerr ic
  in
  let threads =
    List.mapi (fun c slice -> Thread.create (fun () -> client c slice) ()) slices
  in
  List.iter Thread.join threads;
  Server.request_drain ();
  Thread.join server;
  Server.reset_drain ();
  List.iteri
    (fun c slice ->
      let solo = make_service () in
      Alcotest.(check (list string))
        (Printf.sprintf "client %d stream = solo run" c)
        (List.map (ask solo) slice)
        results.(c))
    slices

(* a socket path naming a regular file is refused, and the file is left
   alone; a drain is requested up front so a server that wrongly took
   the path over returns at once instead of serving forever *)
let test_socket_keeps_foreign_file () =
  let dir = tmpdir () in
  let path = Filename.concat dir "notes.txt" in
  write_file path "not a socket\n";
  let service = make_service () in
  Server.request_drain ();
  let outcome =
    Fun.protect ~finally:Server.reset_drain (fun () ->
        match
          Server.serve_unix_socket ~queue:4 ~max_conns:1 ~pool:Pool.sequential
            ~handler:(Service.handler service)
            ~crash_response:Service.crash_response
            ~overlong_response:Service.overlong_response
            ~shed_response:Service.shed_response ~path ()
        with
        | _ -> "served"
        | exception Invalid_argument _ -> "refused")
  in
  Alcotest.(check string) "a regular file at the path is refused" "refused" outcome;
  Alcotest.(check bool) "the file survives" true (Sys.file_exists path);
  Alcotest.(check string) "its bytes are untouched" "not a socket\n" (read_file path)

(* a socket left behind by a dead server is replaced, and the server
   removes the socket it bound when it exits *)
let test_socket_replaces_stale_socket () =
  let dir = tmpdir () in
  let path = Filename.concat dir "s.sock" in
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX path);
  Unix.close stale;
  let service = make_service () in
  Server.request_drain ();
  let stats =
    Fun.protect ~finally:Server.reset_drain (fun () ->
        Server.serve_unix_socket ~queue:4 ~max_conns:1 ~pool:Pool.sequential
          ~handler:(Service.handler service)
          ~crash_response:Service.crash_response
          ~overlong_response:Service.overlong_response
          ~shed_response:Service.shed_response ~path ())
  in
  Alcotest.(check bool) "drained without serving" true stats.Server.drained;
  Alcotest.(check bool) "its own socket removed on exit" false (Sys.file_exists path)

(* --- NDJSON trace recording --------------------------------------------- *)

let pipe_of_lines lines =
  let r, w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr w in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  r

let test_record_stream_roundtrip () =
  let n = 200 in
  let lines =
    List.init n (fun i ->
        Printf.sprintf {|{"addr": %d, "write": %b}|} (i * 64) (i mod 3 = 0))
  in
  let r = pipe_of_lines lines in
  let t = Stream.of_ndjson_fd ~chunk_size:64 ~name:"piped" r in
  let dir = tmpdir () in
  let path = Filename.concat dir "t.pptrc" in
  let recorded = Stream.record_stream ~path t in
  Unix.close r;
  Alcotest.(check int) "every entry recorded" n recorded;
  let fi = Stream.file_info path in
  Alcotest.(check string) "name in header" "piped" fi.Stream.fi_name;
  Alcotest.(check int) "header total counted" n fi.Stream.fi_total;
  Alcotest.(check int) "entries readable" n fi.Stream.fi_entries;
  Alcotest.(check int) "on-disk chunk grain" 64 fi.Stream.fi_chunk_size;
  Alcotest.(check int) "chunk count" 4 fi.Stream.fi_chunks;
  Alcotest.(check bool) "clean tail" false fi.Stream.fi_dropped_tail;
  (* the recording replays the exact entry sequence *)
  let got = ref [] in
  let streamed =
    Stream.iter (Stream.of_file path) (fun addr write -> got := (addr, write) :: !got)
  in
  Alcotest.(check int) "iter count" n streamed;
  let got = List.rev !got in
  Alcotest.(check bool) "addresses and kinds byte-exact" true
    (List.for_all2
       (fun i (addr, write) -> addr = i * 64 && write = (i mod 3 = 0))
       (List.init n Fun.id) got);
  (* no temporaries left behind *)
  Alcotest.(check (list string)) "only the committed file remains"
    [ "t.pptrc" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let test_record_stream_malformed_cleanup () =
  let r =
    pipe_of_lines
      [ {|{"addr": 64}|}; {|{"addr": 128}|}; "definitely not json" ]
  in
  let t = Stream.of_ndjson_fd ~chunk_size:2 ~name:"bad" r in
  let dir = tmpdir () in
  let path = Filename.concat dir "t.pptrc" in
  (match Stream.record_stream ~path t with
  | _ -> Alcotest.fail "malformed NDJSON must raise"
  | exception Invalid_argument _ -> ());
  Unix.close r;
  Alcotest.(check (list string))
    "no partial file, no spool left" []
    (Array.to_list (Sys.readdir dir))

(* --- suite ------------------------------------------------------------- *)

let suite =
  [
    Alcotest.test_case
      "lockfile: two racing breakers of one stale lock, one winner" `Quick
      test_lock_break_race;
    Alcotest.test_case "store: live/dead accounting and compaction stats"
      `Quick test_store_accounting_and_compaction;
    Generators.to_alcotest store_churn_property;
    Alcotest.test_case "server: limiter sheds beyond capacity in order" `Quick
      test_limiter_sheds_in_order;
    Alcotest.test_case "server: connection beyond max_conns is shed" `Quick
      test_socket_shed_connection;
    Alcotest.test_case "server: concurrent client streams match solo runs"
      `Quick test_socket_concurrent_streams;
    Alcotest.test_case "server: a non-socket file at the path survives" `Quick
      test_socket_keeps_foreign_file;
    Alcotest.test_case "server: a stale socket at the path is replaced" `Quick
      test_socket_replaces_stale_socket;
    Alcotest.test_case "stream: NDJSON pipe recorded to PPTRC01 losslessly"
      `Quick test_record_stream_roundtrip;
    Alcotest.test_case "stream: malformed NDJSON recording leaves no partials"
      `Quick test_record_stream_malformed_cleanup;
  ]
