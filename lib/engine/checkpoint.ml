(* Durable journal of completed sweep slots.

   Format: an 8-byte magic ("PPCKPT01") followed by append-only
   records, each

     [klen:u32le] [key bytes] [vlen:u32le] [value bytes] [crc:u32le]

   where value is the slot result marshalled with [Marshal.to_string v
   []] and crc is CRC-32 (IEEE 802.3) over key ^ value.  Replay is
   corruption-tolerant by construction: records are read until the
   first truncated, over-long or CRC-mismatching one, the file is
   truncated back to the last good record, and everything after it is
   simply recomputed — a crash mid-append can at worst lose the record
   being written, never serve a corrupt slot.

   Typing discipline: the journal stores marshalled bytes, so a lookup
   must be deserialised at the same type that was stored.  Keys are
   therefore namespaced by {!Sweep} as "<task name>\x00<slot key>" —
   one task, one result type — and slot keys must encode every input
   the result depends on (context fingerprints included).  The CLI
   arms one journal process-wide ({!set_active}); sweeps consult it on
   every keyed slot. *)

type t = {
  dir : string;
  path : string;
  file_lock : Lockfile.t; (* single-writer guard, released at close *)
  mutable oc : out_channel option;
  lock : Mutex.t;
  table : (string, string) Hashtbl.t; (* key -> marshalled value *)
  mutable replayed : int; (* records served back from disk at open *)
  mutable served : int;
  mutable appended : int;
  mutable dropped : bool; (* a corrupt tail was truncated at open *)
}

let magic = "PPCKPT01"
let journal_name = "journal.ppck"
let max_key_len = 1_000_000
let max_value_len = 256_000_000

let record_crc ~key ~value = Crc32.update (Crc32.update Crc32.init key) value

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

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* --- replay --------------------------------------------------------- *)

(* read records until the first bad one; returns the byte offset just
   past the last good record *)
let replay_channel ic table =
  let good_end = ref (String.length magic) in
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
       Hashtbl.replace table key value;
       good_end := pos_in ic
     done
   with End_of_file | Exit -> ());
  !good_end

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.ftruncate fd len)

(* --- lifecycle ------------------------------------------------------ *)

let open_ ~dir ~resume =
  mkdir_p dir;
  let path = Filename.concat dir journal_name in
  (* single-writer discipline: two processes (or two handles) armed on
     the same journal would interleave records; fail fast instead.  The
     lock is held until [close] and survives crashes via stale-PID
     detection in {!Lockfile}. *)
  let file_lock = Lockfile.acquire ~path:(path ^ ".lock") in
  let body () =
  let table = Hashtbl.create 64 in
  let dropped = ref false in
  let fresh = ref true in
  if resume && Sys.file_exists path then begin
    let ic = open_in_bin path in
    let size = in_channel_length ic in
    let good_end =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let head = if size >= String.length magic then read_string ic (String.length magic) else "" in
          if String.equal head magic then replay_channel ic table else 0)
    in
    if good_end > 0 then begin
      fresh := false;
      if good_end < size then begin
        (* corrupt or truncated tail: drop it so appends extend a
           journal whose every byte is known good *)
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
      oc
    end
    else open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
  in
  let replayed = Hashtbl.length table in
  if replayed > 0 then begin
    Metrics.incr ~by:replayed "checkpoint.replayed";
    if Events.enabled () then
      Events.emit (Events.Checkpoint_replayed { dir; replayed })
  end;
  if !dropped then Metrics.incr "checkpoint.dropped";
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
  }
  in
  (match body () with
  | t -> t
  | exception e ->
    Lockfile.release file_lock;
    raise e)

let close t =
  Mutex.protect t.lock (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        t.oc <- None;
        flush oc;
        close_out oc);
  Lockfile.release t.file_lock

let dir t = t.dir
let path t = t.path
let replayed t = t.replayed
let served t = Mutex.protect t.lock (fun () -> t.served)
let appended t = Mutex.protect t.lock (fun () -> t.appended)
let dropped_tail t = t.dropped
let entries t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)
let mem t ~key = Mutex.protect t.lock (fun () -> Hashtbl.mem t.table key)

let lookup : type a. t -> key:string -> a option =
 fun t ~key ->
  let value = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table key) in
  match value with
  | None -> None
  | Some v ->
    Mutex.protect t.lock (fun () -> t.served <- t.served + 1);
    Metrics.incr "checkpoint.served";
    Some (Marshal.from_string v 0)

let store t ~key v =
  let value = Marshal.to_string v [] in
  Mutex.protect t.lock (fun () ->
      if not (Hashtbl.mem t.table key) then begin
        Hashtbl.replace t.table key value;
        match t.oc with
        | None -> ()
        | Some oc ->
          output_string oc (u32_to_bytes (String.length key));
          output_string oc key;
          output_string oc (u32_to_bytes (String.length value));
          output_string oc value;
          output_string oc (u32_to_bytes (record_crc ~key ~value));
          (* flush per record: a crash loses at most the half-written
             tail, which replay truncates *)
          flush oc;
          t.appended <- t.appended + 1;
          Metrics.incr "checkpoint.appended"
      end)

(* --- the process-wide active journal -------------------------------- *)

let active_state : t option Atomic.t = Atomic.make None
let set_active c = Atomic.set active_state c
let active () = Atomic.get active_state
