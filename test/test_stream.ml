(* Stream suite: the chunk-equivalence harness for the streaming trace
   engine.

   The load-bearing property is byte-identity: for every source and
   every chunk size, streamed analysis / replay / simulation must
   equal the materialised-trace results exactly — the
   golden matrix pins it for the headline workloads at chunk sizes
   {1, 7, 4096, whole}, and a QCheck property re-samples (workload,
   chunk) pairs.  The PPTRC01 chaos set mirrors the store journal
   tests in test_serve: round-trip, torn tail, mid-file corruption,
   foreign files, the address domain (of files, pipes and producers).
   A file pinned byte for byte and
   a property against a byte-at-a-time reference decoder hold the
   word-at-a-time decoder to the format, and the built CLI must report
   a short read.  The kill-and-resume gate
   SIGKILLs a checkpointed streamed simulation mid-chunk in a
   re-exec'd child and requires the resumed run to finish
   byte-identically.  The allocation gate pins the packed, reused
   chunk path: replaying a recorded file allocates almost nothing per
   access. *)

module Trace = Nmcache_cachesim.Trace
module Stream_trace = Nmcache_cachesim.Stream_trace
module Cache = Nmcache_cachesim.Cache
module Replacement = Nmcache_cachesim.Replacement
module Stats = Nmcache_cachesim.Stats
module Gen = Nmcache_workload.Gen
module Access = Nmcache_workload.Access
module Registry = Nmcache_workload.Registry
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
  Cache.pair ~l1 ~l2

let hierarchy_stats (p : Cache.pair) = (Cache.stats p.l1, Cache.stats p.l2)

let rates (p : Cache.pair) =
  (Stats.miss_rate (Cache.stats p.l1), Stats.miss_rate (Cache.stats p.l2))

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

(* --- simulate equality ---------------------------------------------------- *)

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

(* --- PPTRC01 decoding through the public reader ------------------------- *)

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let to_hex s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* the format's little-endian word *)
let u32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))
let u32_at s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

(* magic, length-prefixed header and its CRC: the bytes before the
   first record *)
let head_length file = String.length Stream_trace.magic + 8 + u32_at file 8

(* A PPTRC01 file pinned byte for byte, derived from the format's
   description alone: the header {"name":"ka","total":19,"chunk":12},
   then records of 12 and 7 entries.  The first record's varints are
   1, 9, 8, 7, 6, 5, 4, 3, 2, 1, 3 and 5 bytes long: its 3-byte varint
   starts exactly 8 bytes before the record's end, and the 5-byte one
   after it.  The second's are 9, 9, 8, 1, 1, 7 and 1 bytes: a 7-byte
   varint starts 8 bytes before the end, a 1-byte one ends it.  Each
   record holds addresses 0 and 2^61 - 1 and both write bits. *)
let known_answer_file =
  of_hex
    "5050545243303100230000007b226e616d65223a226b61222c22746f74616c22\
     3a31392c226368756e6b223a31327d62b889540c0000003600000000fdffffff\
     ffffffff7ffeffffffffffff0781808080808010feffffffff0f8180808010fe\
     ffff0f818010fe0f15808010818080801064b497080700000024000000fdffff\
     ffffffffff7ffaffffffffffffff7f81808080808080010403808080808080100b\
     eb281b03"

let known_answer_entries =
  Array.map
    (fun (addr, write) -> { Trace.addr; write })
    [|
      (0x0, false);
      (0x1fffffffffffffff, true);
      (0x1ffbffffffffffff, false);
      (0x1ffc0fffffffffff, true);
      (0x1ffc0fdfffffffff, false);
      (0x1ffc0fe03fffffff, true);
      (0x1ffc0fe03f7fffff, false);
      (0x1ffc0fe03f80ffff, true);
      (0x1ffc0fe03f80fdff, false);
      (0x1ffc0fe03f80fe04, true);
      (0x1ffc0fe03f81fe04, false);
      (0x1ffc0fe07f81fe04, true);
      (0x1fffffffffffffff, true);
      (0x0, false);
      (0x800000000000, true);
      (0x800000000001, false);
      (0x800000000000, true);
      (0x900000000000, false);
      (0x8ffffffffffd, true);
    |]

let test_pptrc_known_answer () =
  let dir = tmpdir () in
  let path = Filename.concat dir "ka.pptrc" in
  write_file path known_answer_file;
  List.iter
    (fun chunk_size ->
      let got =
        Stream_trace.fold_chunks (Stream_trace.of_file ~chunk_size path) ~init:[]
          ~f:(fun acc ~index:_ chunk ->
            Array.fold_left
              (fun acc e ->
                { Trace.addr = Stream_trace.addr e; write = Stream_trace.is_write e }
                :: acc)
              acc chunk)
      in
      Alcotest.(check bool)
        (Printf.sprintf "chunk %d: fold_chunks yields the listed entries" chunk_size)
        true
        (Array.of_list (List.rev got) = known_answer_entries))
    [ 1; 5; 4096 ];
  let info = Stream_trace.file_info path in
  Alcotest.(check (triple int int bool))
    "file_info: 19 entries in 2 records, nothing dropped" (19, 2, false)
    (info.Stream_trace.fi_entries, info.Stream_trace.fi_chunks,
     info.Stream_trace.fi_dropped_tail);
  let again = Filename.concat dir "again.pptrc" in
  record_to ~path:again ~name:"ka" ~chunk_size:12 known_answer_entries;
  Alcotest.(check string) "write_file reproduces the bytes" (to_hex known_answer_file)
    (to_hex (read_file again))

(* The format's decoder, one byte at a time, written from its
   description: [Some entries] when [count] varints of at most 9 bytes
   fill [payload] exactly and every address lies in [0, 2^61); [None]
   when a reader must drop the record. *)
let reference_decode payload count =
  let len = String.length payload in
  let rec varint pos shift v =
    if pos >= len || shift > 56 then None
    else
      let b = Char.code payload.[pos] in
      let v = v lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then Some (v, pos + 1) else varint (pos + 1) (shift + 7) v
  in
  let rec entries i pos prev acc =
    if i = count then if pos = len then Some (Array.of_list (List.rev acc)) else None
    else
      match varint pos 0 0 with
      | None -> None
      | Some (v, pos) ->
        let z = v lsr 1 in
        let addr = prev + ((z lsr 1) lxor (- (z land 1))) in
        if addr < 0 || addr > Stream_trace.max_addr then None
        else entries (i + 1) pos addr ({ Trace.addr; write = v land 1 = 1 } :: acc)
  in
  entries 0 0 0 []

(* [v]'s 63 bits as a varint of exactly [len] bytes: LEB128, padded
   with zero groups past its shortest form *)
let varint_of len v =
  String.init len (fun i ->
      let group = if 7 * i > 62 then 0 else (v lsr (7 * i)) land 0x7f in
      Char.chr (if i < len - 1 then group lor 0x80 else group))

let varint_length v =
  let rec go v n = if v lsr 7 = 0 then n else go (v lsr 7) (n + 1) in
  go v 1

type mutation =
  | Clean
  | Overlong
  | Truncated
  | Trailing
  | Out_of_domain
  | Count_off
  | Noise

let mutation_name = function
  | Clean -> "clean"
  | Overlong -> "a 10-12 byte varint"
  | Truncated -> "a truncated last varint"
  | Trailing -> "trailing bytes"
  | Out_of_domain -> "an address outside [0, 2^61)"
  | Count_off -> "a wrong count"
  | Noise -> "random bytes"

(* one record's (count, payload): entries whose deltas span every
   varint length, some padded past their shortest form (to at most 9
   bytes), then at most one defect *)
let pptrc_record_gen =
  let open QCheck.Gen in
  let addr =
    let* bits = int_range 0 61 in
    map (fun x -> x land ((1 lsl bits) - 1)) int
  in
  let entry = triple addr bool (frequency [ (6, return 0); (1, int_range 1 2) ]) in
  let* m =
    frequency
      [
        (4, return Clean);
        (1, return Overlong);
        (1, return Truncated);
        (1, return Trailing);
        (1, return Out_of_domain);
        (1, return Count_off);
        (1, return Noise);
      ]
  in
  let* entries = list_size (int_range (if m = Clean then 0 else 1) 40) entry in
  let n = List.length entries in
  let* victim = int_bound (max 0 (n - 1))
  and* small = int_bound 0xffff
  and* extra = int_range 0 2
  and* junk = string_size (int_range 1 8)
  and* cut = int_range 1 9
  and* off = oneofl [ -2; -1; 1; 2 ]
  and* noise = string_size (int_range 0 24)
  and* noise_count = int_range 0 8 in
  let prev = ref 0 in
  let varints =
    List.mapi
      (fun i (target, write, pad) ->
        (* a delta below 2^61 in magnitude, so the address decodes as
           written, just outside the domain *)
        let target =
          if m = Out_of_domain && i = victim then
            if !prev >= 1 lsl 60 then Stream_trace.max_addr + 1 + small else -1 - small
          else target
        in
        let d = target - !prev in
        let v = (((d lsl 1) lxor (d asr 62)) lsl 1) lor Bool.to_int write in
        prev := target;
        let len =
          if m = Overlong && i = victim then 10 + extra
          else min 9 (varint_length v + pad)
        in
        varint_of len v)
      entries
  in
  let payload = String.concat "" varints in
  return
    (match m with
    | Clean | Overlong | Out_of_domain -> (m, n, payload)
    | Truncated ->
      let len = String.length payload in
      (m, n, String.sub payload 0 (len - min cut len))
    | Trailing -> (m, n, payload ^ junk)
    | Count_off -> (m, max 0 (n + off), payload)
    | Noise -> (m, noise_count, noise))

let pptrc_reference_decode_prop =
  let dir = lazy (tmpdir ()) in
  QCheck.Test.make
    ~name:"pptrc: a record is read or dropped as a byte-at-a-time decoder decides"
    ~count:500
    (QCheck.make
       ~print:(fun (m, count, payload) ->
         Printf.sprintf "%s: count %d, payload %s" (mutation_name m) count
           (to_hex payload))
       pptrc_record_gen)
    (fun (_, count, payload) ->
      let path = Filename.concat (Lazy.force dir) "reference.pptrc" in
      let header =
        Printf.sprintf {|{"name":"ref","total":%d,"chunk":%d}|} count (max 1 count)
      in
      write_file path
        (String.concat ""
           [
             Stream_trace.magic; u32 (String.length header); header;
             u32 (Nmcache_engine.Crc32.crc header); u32 count;
             u32 (String.length payload); payload;
             u32 (Nmcache_engine.Crc32.crc payload);
           ]);
      let info = Stream_trace.file_info path in
      let streamed = collect (Stream_trace.of_file path) in
      match reference_decode payload count with
      | Some want ->
        (not info.Stream_trace.fi_dropped_tail)
        && info.Stream_trace.fi_entries = count
        && streamed = want
      | None ->
        info.Stream_trace.fi_dropped_tail
        && info.Stream_trace.fi_entries = 0
        && streamed = [||])

(* --- simulate --trace-file on a short file ------------------------------ *)

let test_simulate_reports_short_read () =
  let dir = tmpdir () in
  let file name = Filename.concat dir name in
  let simulate name = Test_cli.run_ppcache ~dir [ "simulate"; "--trace-file"; file name ] in
  let entries = entries_of "tpcc" 1_000 in
  record_to ~path:(file "full.pptrc") ~name:"tpcc" ~chunk_size:100 entries;
  let full = read_file (file "full.pptrc") in
  (* cut in half: the fifth record is torn *)
  write_file (file "torn.pptrc") (String.sub full 0 (String.length full / 2));
  Alcotest.(check int) "the torn file keeps four records" 400
    (Stream_trace.file_info (file "torn.pptrc")).Stream_trace.fi_entries;
  record_to ~path:(file "clean.pptrc") ~name:"tpcc" ~chunk_size:100
    (Array.sub entries 0 400);
  (* the full file's header, then the clean file's four records: cut at
     a record boundary, so nothing is torn and no drop is flagged *)
  let clean = read_file (file "clean.pptrc") in
  let records =
    String.sub clean (head_length clean) (String.length clean - head_length clean)
  in
  write_file (file "cut.pptrc") (String.sub full 0 (head_length full) ^ records);
  Alcotest.(check bool) "the cut file raises no drop flag" false
    (Stream_trace.file_info (file "cut.pptrc")).Stream_trace.fi_dropped_tail;
  let status, want, err = simulate "clean.pptrc" in
  Alcotest.(check bool) "clean: exit 0" true (status = Unix.WEXITED 0);
  Alcotest.(check string) "clean: nothing on stderr" "" err;
  List.iter
    (fun name ->
      let status, out, err = simulate name in
      Alcotest.(check bool) (name ^ ": exit 0") true (status = Unix.WEXITED 0);
      Alcotest.(check string) (name ^ ": stdout equals the clean recording's") want out;
      Alcotest.(check string) (name ^ ": one stderr line with the file and both counts")
        (Printf.sprintf
           "ppcache: short read: %s yielded 400 of the 1000 accesses its header \
            declares (tail dropped)\n"
           (file name))
        err)
    [ "torn.pptrc"; "cut.pptrc" ];
  (* torn inside its first record: nothing to simulate *)
  write_file (file "first.pptrc") (String.sub full 0 (head_length full + 20));
  let status, out, err = simulate "first.pptrc" in
  Alcotest.(check bool) "fully torn: exit 2" true (status = Unix.WEXITED 2);
  Alcotest.(check string) "fully torn: no stdout" "" out;
  Alcotest.(check string) "fully torn: empty, and says the tail was dropped"
    (Printf.sprintf
       "ppcache: trace tpcc is empty (0 of the 1000 accesses %s declares; tail \
        dropped); nothing to simulate\n"
       (file "first.pptrc"))
    err

(* --- defined empty-stream behaviour ------------------------------------- *)

let test_empty_stream () =
  let producer () _ _ _ = Alcotest.fail "an empty stream must never pull" in
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

(* A producer fills whole ranges, and the fold checks each range with
   one OR: an entry packed from an address of 2^61 or more is negative,
   and the fold raises naming that address, wherever it falls, before
   the chunk holding it reaches [f]. *)
let test_producer_rejects_out_of_domain () =
  let n = 1000 and chunk_size = 256 in
  let stream ~bad_at addr =
    Stream_trace.of_producer ~chunk_size ~name:"domain" ~n (fun () ->
        let drawn = ref 0 in
        fun entries pos len ->
          for i = 0 to len - 1 do
            let k = !drawn + i in
            let a = if k = bad_at then addr else 64 * k in
            entries.(pos + i) <- Stream_trace.pack a (k land 1 = 1)
          done;
          drawn := !drawn + len)
  in
  let chunks s =
    let folded = ref 0 in
    match Stream_trace.fold_chunks s ~init:() ~f:(fun () ~index:_ _ -> incr folded) with
    | () -> Ok !folded
    | exception Invalid_argument msg -> Error (msg, !folded)
  in
  List.iter
    (fun (bad_at, addr) ->
      let what = Printf.sprintf "entry %d at %d" bad_at addr in
      match chunks (stream ~bad_at addr) with
      | Ok _ -> Alcotest.failf "%s: accepted" what
      | Error (msg, folded) ->
        Alcotest.(check string) (what ^ ": the error names the address")
          (Printf.sprintf "Stream_trace domain: address %d outside [0, 2^61)" addr)
          msg;
        Alcotest.(check int) (what ^ ": only the chunks before it folded") (bad_at / chunk_size)
          folded)
    [ (0, Stream_trace.max_addr + 1); (300, Stream_trace.max_addr + 6); (999, max_int) ];
  let s = stream ~bad_at:300 Stream_trace.max_addr in
  Alcotest.(check bool) "2^61 - 1 accepted" true (chunks s = Ok 4);
  Alcotest.(check bool) "and streamed as filled" true
    ((collect s).(300) = { Trace.addr = Stream_trace.max_addr; write = false })

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

(* The words a replay allocates, minor and major alike (large blocks
   go straight to the major heap, where [Gc.minor_words] misses them). *)
let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* A replay's caches, first-touch pages, chunk buffer and record buffer
   are costs per replay, not per access.  To see the per-access cost,
   the same 1M accesses are recorded once and twice over (the same
   footprint, the same records): the second pass's words over 1M are
   what a replayed access allocates.  0.48 when every record was read
   into a fresh string; 0.017 with one reused buffer, nearly all of it
   the copy of the last, partial chunk, which is longer in the doubled
   file. *)
let test_replay_words_per_access () =
  let n = 1_000_000 in
  let gen = Registry.build "spec2000-mix" in
  let packed = Array.init n (fun _ -> Gen.next_packed gen) in
  let dir = tmpdir () in
  let record copies =
    let path = Filename.concat dir (Printf.sprintf "x%d.pptrc" copies) in
    let i = ref (-1) in
    Stream_trace.write_file ~path ~name:"spec2000-mix" ~n:(copies * n)
      ~next:(fun () ->
        incr i;
        let e = packed.(!i mod n) in
        { Trace.addr = Stream_trace.addr e; write = Stream_trace.is_write e })
      ();
    path
  in
  let words path =
    let replay () =
      Missrate.simulate_stream ~warmup:false ~stream:(Stream_trace.of_file path)
        ~l1_size:(16 * 1024) ~l2_size:(1024 * 1024) ()
    in
    ignore (replay ());
    let w0 = allocated_words () in
    ignore (replay ());
    allocated_words () -. w0
  in
  let once = words (record 1) and twice = words (record 2) in
  let per_access = (twice -. once) /. float_of_int n in
  if per_access > 0.1 then
    Alcotest.failf "a replayed access allocates %.3f words (gate: 0.1; %.0f words per 1M-access replay)"
      per_access once

(* --- direct and staged decode ------------------------------------------ *)

(* A file recorded at chunk [c], read at chunks 1, 7, c - 1, c, c + 1 and
   whole: a record that fits the space left in the fold's chunk decodes
   straight into it, any other through the staged copy.  Every grain
   must yield the entries of the records before the first bad one, in
   chunks of the reader's grain, and count one dropped tail exactly when
   there is a bad one.  A record count is outside the CRC, so a count
   off by one makes a record undecodable after its CRC passed: the
   direct path then fails half-way through writing into the chunk. *)
let test_pptrc_direct_and_staged_decode () =
  let c = 300 and n = 2_500 in
  let entries = entries_of "tpcc" n in
  let path = Filename.concat (tmpdir ()) "grains.pptrc" in
  record_to ~path ~name:"tpcc" ~chunk_size:c entries;
  let clean = read_file path in
  (* the offset of record [k], from the payload lengths the records carry *)
  let record_at k =
    let rec go pos k = if k = 0 then pos else go (pos + 12 + u32_at clean (pos + 4)) (k - 1) in
    go (head_length clean) k
  in
  let edit pos bytes =
    String.sub clean 0 pos ^ bytes
    ^ String.sub clean (pos + String.length bytes) (String.length clean - pos - String.length bytes)
  in
  let count_plus k d = edit (record_at k) (u32 (u32_at clean (record_at k) + d)) in
  let flipped pos = String.make 1 (Char.chr (Char.code clean.[pos] lxor 0x5a)) in
  (* (case, file, records that survive, dropped tail) *)
  let cases =
    [
      ("clean", clean, 9, false);
      ("cut at record 8", String.sub clean 0 (record_at 8), 8, false);
      ("torn inside record 4", String.sub clean 0 (record_at 4 + 20), 4, true);
      ("torn inside record 8's count", String.sub clean 0 (record_at 8 + 2), 8, true);
      ("garbled payload in record 3", edit (record_at 3 + 30) (flipped (record_at 3 + 30)), 3, true);
      ("count one more in record 5", count_plus 5 1, 5, true);
      ("count one less in record 0", count_plus 0 (-1), 0, true);
      ("count one more in the last record", count_plus 8 1, 8, true);
    ]
  in
  List.iter
    (fun (case, file, records, dropped) ->
      write_file path file;
      let want = Array.sub entries 0 (min n (records * c)) in
      let info = Stream_trace.file_info path in
      Alcotest.(check int) (case ^ ": file_info entries") (Array.length want)
        info.Stream_trace.fi_entries;
      Alcotest.(check bool) (case ^ ": file_info dropped tail") dropped
        info.Stream_trace.fi_dropped_tail;
      List.iter
        (fun chunk_size ->
          let what = Printf.sprintf "%s, chunk %d" case chunk_size in
          let before = Nmcache_engine.Metrics.counter_value "stream.dropped_tail" in
          let got = ref [] and lengths = ref [] in
          let (_ : unit) =
            Stream_trace.fold_chunks (Stream_trace.of_file ~chunk_size path) ~init:()
              ~f:(fun () ~index:_ chunk ->
                lengths := Array.length chunk :: !lengths;
                Array.iter
                  (fun e ->
                    got := { Trace.addr = Stream_trace.addr e; write = Stream_trace.is_write e } :: !got)
                  chunk)
          in
          let drops = Nmcache_engine.Metrics.counter_value "stream.dropped_tail" - before in
          Alcotest.(check bool) (what ^ ": entries") true (Array.of_list (List.rev !got) = want);
          Alcotest.(check int) (what ^ ": dropped tails") (Bool.to_int dropped) drops;
          (* [lengths] is newest first: the last chunk heads it *)
          Alcotest.(check bool) (what ^ ": every chunk but the last is full") true
            (match !lengths with
            | [] -> true
            | _ :: full -> List.for_all (fun l -> l = chunk_size) full))
        [ 1; 7; c - 1; c; c + 1; n ])
    cases

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

(* Slot keys carry the fold-state format, so a journal written before
   it (by a binary whose [Cache.t] held a record-of-[int64] [Rng.t])
   never feeds an old state to the current fold: every such slot
   misses and is recomputed.  The stale slots here hold a wrong count,
   which a served slot would leak into the result. *)
let test_checkpoint_old_slot_format_recomputed () =
  let dir = tmpdir () in
  let s = Wstream.of_workload ~chunk_size:500 ~workload:"tpcc" ~n:2_000 () in
  let skey = Option.get (Stream_trace.key s) and salt = "count" in
  let j = Store.open_fresh ~dir in
  for i = 0 to 3 do
    let old_key = Printf.sprintf "stream\x00%s\x00%s:chunk:%d" skey salt i in
    ignore (Store.add_new j ~ns:"slot" ~key:old_key (-1_000_000))
  done;
  Store.close j;
  let j = Store.open_ ~dir in
  Sweep.set_journal (Some j);
  let total =
    Fun.protect
      ~finally:(fun () -> Sweep.set_journal None)
      (fun () ->
        Stream_trace.resumable_fold ~salt s ~init:0 ~f:(fun n ~index:_ chunk ->
            n + Array.length chunk))
  in
  let served = Store.served j and appended = Store.appended j in
  Store.close j;
  Alcotest.(check int) "the count is recomputed" 2_000 total;
  Alcotest.(check int) "no old-format slot served" 0 served;
  Alcotest.(check int) "every chunk journaled under the tagged key" 4 appended

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
              (Cache.step h (Stream_trace.addr e) ~write:(Stream_trace.is_write e))
          done;
          (h, c + Array.length chunk))
    in
    let served = Store.served j in
    Sweep.set_journal None;
    Store.close j;
    let oc = open_out_bin out_file in
    let m1, m2 = rates h in
    Printf.fprintf oc "%d %.9f %.9f\nserved %d\n" count m1 m2 served;
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
    let m1, m2 = rates h in
    Printf.sprintf "%d %.9f %.9f" n m1 m2
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
    Alcotest.test_case "pptrc: a pinned file decodes to its entries and back" `Quick
      test_pptrc_known_answer;
    Generators.to_alcotest pptrc_reference_decode_prop;
    Alcotest.test_case "simulate --trace-file reports a short read on stderr" `Quick
      test_simulate_reports_short_read;
    Alcotest.test_case "empty stream: defined zero stats, f never called" `Quick
      test_empty_stream;
    Alcotest.test_case "ndjson: pipe source parses, skips blanks, rejects garbage"
      `Quick test_ndjson_source;
    Alcotest.test_case "pptrc: write_file rejects addresses outside [0, 2^61)" `Quick
      test_write_file_rejects_out_of_domain;
    Alcotest.test_case "producer: a range with an address of 2^61 or more raises naming it"
      `Quick test_producer_rejects_out_of_domain;
    Alcotest.test_case "chunks: every full chunk is one reused buffer" `Quick
      test_full_chunks_share_one_buffer;
    Alcotest.test_case "alloc gate: file replay allocates <= 1 minor word/access"
      `Quick test_replay_allocation_gate;
    Alcotest.test_case "alloc gate: a replayed access allocates <= 0.1 words (1M-access file)"
      `Quick test_replay_words_per_access;
    Alcotest.test_case "pptrc: direct and staged decode agree" `Quick
      test_pptrc_direct_and_staged_decode;
    Alcotest.test_case "checkpoint: an old-format slot is recomputed, not served" `Quick
      test_checkpoint_old_slot_format_recomputed;
    Alcotest.test_case "checkpoint: chunk slots resume byte-identically" `Quick
      test_checkpoint_resume_in_process;
    Alcotest.test_case "chaos: SIGKILL mid-chunk, resume byte-identical" `Quick
      test_kill_and_resume_streaming;
  ]
