(* Persistent journal store (see the .mli for the contract).

   Format: an 8-byte magic followed by append-only records

     [klen:u32le] [key bytes] [vlen:u32le] [value bytes] [crc:u32le]

   where value is a [Marshal] string and crc is CRC-32 over key then
   value.  Keys carry their namespace inline as "<ns>\x00<key>": one
   flat table, namespaced lookups.

   Two magics share the format: PPSTOR01 is an append-grown journal,
   PPSTOR02 a compacted segment (every key exactly once).  Both are
   append-able after open; compaction rewrites live records into a
   fresh PPSTOR02 via tmp+rename, so the old segment stays
   authoritative until one atomic instruction. *)

type t = {
  dir : string;
  path : string;
  file_lock : Lockfile.t;
  mutable oc : out_channel option;
  lock : Mutex.t;
  table : (string, string) Hashtbl.t; (* "<ns>\x00<key>" -> marshalled value *)
  replayed : int;
  mutable served : int;
  mutable appended : int;
  mutable dropped : bool;
  mutable version : int; (* 1 = PPSTOR01, 2 = PPSTOR02 *)
  mutable live_bytes : int; (* record bytes (excl. magic) of live records *)
  mutable dead_records : int; (* on-disk duplicates shadowed by an earlier write *)
  mutable dead_bytes : int;
}

let magic = "PPSTOR01"
let magic_compacted = "PPSTOR02"
let store_name = "store.ppck"
let max_key_len = 1_000_000
let max_value_len = 256_000_000

let full_key ~ns ~key =
  if String.contains ns '\x00' then invalid_arg "Store: namespace contains NUL";
  ns ^ "\x00" ^ key

(* --- binary plumbing ------------------------------------------------ *)

let u32_to_bytes n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.unsafe_to_string b

let read_u32 ic =
  let b = Bytes.create 4 in
  really_input ic b 0 4;
  Int32.to_int (Bytes.get_int32_le b 0) land 0xFFFFFFFF

let read_string ic n =
  let b = Bytes.create n in
  really_input ic b 0 n;
  Bytes.unsafe_to_string b

(* CRC over key then value, chained so the record is never copied *)
let record_crc ~key ~value = Crc32.update (Crc32.update Crc32.init key) value

(* [klen][key][vlen][value][crc] *)
let record_size ~key ~value = 12 + String.length key + String.length value

(* the one writer of the record layout; [emit] is a channel or a buffer *)
let write_record emit ~key ~value =
  emit (u32_to_bytes (String.length key));
  emit key;
  emit (u32_to_bytes (String.length value));
  emit value;
  emit (u32_to_bytes (record_crc ~key ~value))

let encode_record ~ns ~key ~value =
  let key = full_key ~ns ~key in
  let b = Buffer.create (record_size ~key ~value) in
  write_record (Buffer.add_string b) ~key ~value;
  Buffer.contents b

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* First-write-wins replay, mirroring [add]: a duplicate key on disk is
   a *dead* record — it can never be served — and is what compaction
   reclaims.  Returns the end of the last good record plus live/dead
   accounting. *)
let replay_channel ic table =
  let good_end = ref (String.length magic) in
  let live_bytes = ref 0 in
  let dead_records = ref 0 in
  let dead_bytes = ref 0 in
  (try
     while true do
       let klen = read_u32 ic in
       if klen < 1 || klen > max_key_len then raise Exit;
       let key = read_string ic klen in
       let vlen = read_u32 ic in
       if vlen < 0 || vlen > max_value_len then raise Exit;
       let value = read_string ic vlen in
       let crc = read_u32 ic in
       if record_crc ~key ~value <> crc then raise Exit;
       if Hashtbl.mem table key then begin
         incr dead_records;
         dead_bytes := !dead_bytes + record_size ~key ~value
       end
       else begin
         Hashtbl.replace table key value;
         live_bytes := !live_bytes + record_size ~key ~value
       end;
       good_end := pos_in ic
     done
   with End_of_file | Exit -> ());
  (!good_end, !live_bytes, !dead_records, !dead_bytes)

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.ftruncate fd len)

(* --- lifecycle ------------------------------------------------------ *)

(* without [replay] an existing journal is discarded: the file starts
   over at the magic *)
let open_with ~replay ~dir =
  mkdir_p dir;
  let path = Filename.concat dir store_name in
  let file_lock = Lockfile.acquire ~path:(path ^ ".lock") in
  let body () =
    (* a leftover .tmp is an interrupted compaction that never reached
       its rename: the old segment is authoritative, discard the tmp *)
    let tmp = path ^ ".tmp" in
    if Sys.file_exists tmp then (try Sys.remove tmp with Sys_error _ -> ());
    let table = Hashtbl.create 256 in
    let dropped = ref false in
    let fresh = ref true in
    let version = ref 1 in
    let live_bytes = ref 0 in
    let dead_records = ref 0 in
    let dead_bytes = ref 0 in
    if replay && Sys.file_exists path then begin
      let ic = open_in_bin path in
      let size = in_channel_length ic in
      let good_end =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let head =
              if size >= String.length magic then read_string ic (String.length magic)
              else ""
            in
            if String.equal head magic || String.equal head magic_compacted then begin
              if String.equal head magic_compacted then version := 2;
              let good_end, live, dead_n, dead_b = replay_channel ic table in
              live_bytes := live;
              dead_records := dead_n;
              dead_bytes := dead_b;
              good_end
            end
            else 0)
      in
      if good_end > 0 then begin
        fresh := false;
        if good_end < size then begin
          dropped := true;
          truncate_file path good_end
        end
      end
    end;
    let oc =
      if !fresh then begin
        let oc = open_out_bin path in
        output_string oc magic;
        flush oc;
        version := 1;
        oc
      end
      else open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
    in
    let replayed = Hashtbl.length table in
    if replayed > 0 then Metrics.incr ~by:replayed "store.replayed";
    if !dropped then Metrics.incr "store.dropped";
    {
      dir;
      path;
      file_lock;
      oc = Some oc;
      lock = Mutex.create ();
      table;
      replayed;
      served = 0;
      appended = 0;
      dropped = !dropped;
      version = !version;
      live_bytes = !live_bytes;
      dead_records = !dead_records;
      dead_bytes = !dead_bytes;
    }
  in
  match body () with
  | t -> t
  | exception e ->
    Lockfile.release file_lock;
    raise e

let open_ ~dir = open_with ~replay:true ~dir
let open_fresh ~dir = open_with ~replay:false ~dir

let close t =
  Mutex.protect t.lock (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        t.oc <- None;
        flush oc;
        close_out oc);
  Lockfile.release t.file_lock

let flush t =
  Mutex.protect t.lock (fun () -> Option.iter Stdlib.flush t.oc)

(* --- access --------------------------------------------------------- *)

let lookup : type a. t -> ns:string -> key:string -> a option =
 fun t ~ns ~key ->
  let k = full_key ~ns ~key in
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table k) with
  | None ->
    Metrics.incr "store.misses";
    None
  | Some v ->
    Mutex.protect t.lock (fun () -> t.served <- t.served + 1);
    Metrics.incr "store.hits";
    Some (Marshal.from_string v 0)

let add_new t ~ns ~key v =
  let k = full_key ~ns ~key in
  let value = Marshal.to_string v [] in
  Mutex.protect t.lock (fun () ->
      if Hashtbl.mem t.table k then false
      else begin
        Hashtbl.replace t.table k value;
        match t.oc with
        | None -> false
        | Some oc ->
          write_record (output_string oc) ~key:k ~value;
          (* flush per record: a SIGKILL loses at most the half-written
             tail, which the next open truncates *)
          Stdlib.flush oc;
          t.appended <- t.appended + 1;
          t.live_bytes <- t.live_bytes + record_size ~key:k ~value;
          Metrics.incr "store.appended";
          true
      end)

let add t ~ns ~key v = ignore (add_new t ~ns ~key v : bool)

let mem t ~ns ~key =
  let k = full_key ~ns ~key in
  Mutex.protect t.lock (fun () -> Hashtbl.mem t.table k)

let keys t ~ns =
  let prefix = ns ^ "\x00" in
  let plen = String.length prefix in
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun k _ acc ->
          if String.length k >= plen && String.sub k 0 plen = prefix then
            String.sub k plen (String.length k - plen) :: acc
          else acc)
        t.table [])
  |> List.sort String.compare

let entries t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)
let replayed t = t.replayed
let appended t = Mutex.protect t.lock (fun () -> t.appended)
let served t = Mutex.protect t.lock (fun () -> t.served)
let dropped_tail t = t.dropped
let dir t = t.dir
let path t = t.path
let segment_version t = Mutex.protect t.lock (fun () -> t.version)
let live_bytes t = Mutex.protect t.lock (fun () -> t.live_bytes)
let dead_records t = Mutex.protect t.lock (fun () -> t.dead_records)
let dead_bytes t = Mutex.protect t.lock (fun () -> t.dead_bytes)

let bytes t =
  Mutex.protect t.lock (fun () -> Option.iter Stdlib.flush t.oc);
  try (Unix.stat t.path).Unix.st_size with Unix.Unix_error _ -> 0

(* --- compaction ----------------------------------------------------- *)

type compact_stats = {
  live : int;
  reclaimed_records : int;
  reclaimed_bytes : int;
  before_bytes : int;
  after_bytes : int;
}

(* Crash-ordering argument (also in EXPERIMENTS.md): the old segment at
   [t.path] is authoritative until the [Unix.rename] — the single
   atomic commit point.  Every step before it only creates/extends
   [t.path ^ ".tmp"], which the next [open_] discards; the tmp is
   fsynced before the rename, so a crash immediately after it can never
   expose a partially-written segment under the real name.  A SIGKILL
   at any [on_step] (or anywhere between) therefore leaves either the
   complete old segment or the complete new one.

   [on_step] is the chaos-test seam: called with 0 before the tmp is
   created, [i] after the i-th live record is written, [live+1] after
   the fsync (just before the rename), and [live+2] after the rename
   (before the append channel reopens). *)
let compact ?(on_step = fun (_ : int) -> ()) t =
  Mutex.protect t.lock (fun () ->
      (match t.oc with
      | None -> invalid_arg "Store.compact: store is closed"
      | Some oc ->
        Stdlib.flush oc;
        close_out oc;
        t.oc <- None);
      let before_bytes =
        try (Unix.stat t.path).Unix.st_size with Unix.Unix_error _ -> 0
      in
      on_step 0;
      let tmp = t.path ^ ".tmp" in
      let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      let toc = Unix.out_channel_of_descr fd in
      output_string toc magic_compacted;
      (* deterministic record order: sorted keys *)
      let keys =
        Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort String.compare
      in
      let live_bytes = ref 0 in
      List.iteri
        (fun i k ->
          let value = Hashtbl.find t.table k in
          write_record (output_string toc) ~key:k ~value;
          live_bytes := !live_bytes + record_size ~key:k ~value;
          on_step (i + 1))
        keys;
      Stdlib.flush toc;
      Unix.fsync fd;
      close_out toc;
      let live = List.length keys in
      on_step (live + 1);
      Unix.rename tmp t.path;
      (* best-effort directory fsync so the rename itself is durable *)
      (match Unix.openfile t.dir [ Unix.O_RDONLY ] 0 with
      | dfd ->
        Fun.protect
          ~finally:(fun () -> Unix.close dfd)
          (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())
      | exception Unix.Unix_error _ -> ());
      on_step (live + 2);
      t.oc <- Some (open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 t.path);
      let reclaimed_records = t.dead_records in
      let reclaimed_bytes = t.dead_bytes in
      t.version <- 2;
      t.dead_records <- 0;
      t.dead_bytes <- 0;
      t.live_bytes <- !live_bytes;
      let after_bytes =
        try (Unix.stat t.path).Unix.st_size with Unix.Unix_error _ -> 0
      in
      Metrics.incr "store.compactions";
      if reclaimed_bytes > 0 then Metrics.incr ~by:reclaimed_bytes "store.reclaimed_bytes";
      { live; reclaimed_records; reclaimed_bytes; before_bytes; after_bytes })
