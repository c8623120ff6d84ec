(* Chunked streaming traces.

   The design constraint is byte-identity: for every chunk size, a
   streamed computation must produce results bitwise-equal to the same
   computation over a materialised [Trace.t].  Chunking therefore only
   decides *when* the engine seams fire (deadline polls, progress
   events, checkpoint slots) — never *what* the consumer observes.
   The test suite and the [oracle.stream] verify group enforce this
   across chunk sizes {1, 7, 4096, whole} and [--jobs] settings.

   Memory is O(chunk): a chunk buffer plus whatever the consumer
   carries.  The PPTRC01 reader additionally holds one decoded on-disk
   record, so a file recorded at a huge chunk grain costs that grain —
   recording and streaming grains are otherwise independent. *)

module Engine = Nmcache_engine

let default_chunk_size = 65536
let magic = "PPTRC01\x00"

(* ---- packed entries -------------------------------------------------- *)

(* A chunk holds one immediate per entry, [addr lsl 1 lor write], so a
   chunk is a flat int array with no per-entry record.  Addresses live
   in [0, 2^61) — the PPTRC01 varint's domain, below — which also makes
   the shift lossless.  Only this section knows the layout. *)

let max_addr = (1 lsl 61) - 1
let in_domain addr = addr lsr 61 = 0
let pack addr write = (addr lsl 1) lor Bool.to_int write
let addr e = e lsr 1
let is_write e = e land 1 = 1

(* ---- PPTRC01 codec --------------------------------------------------- *)

(* Per entry, one LEB128 varint of [zigzag(addr - prev) * 2 + write].
   [prev] resets to 0 at each record boundary so records decode
   independently (a dropped tail never poisons earlier records).  With
   both addresses in [0, 2^61), |delta| < 2^61, so the varint value
   fits the 63 bits the decoder accepts. *)

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag v = (v lsr 1) lxor (- (v land 1))

(* [where] names the caller in the error *)
let check_addr ~where addr =
  if not (in_domain addr) then
    invalid_arg (Printf.sprintf "%s: address %d outside [0, 2^61)" where addr)

let encode_entry buf prev addr write =
  let z = zigzag (addr - prev) in
  let v = ref ((z lsl 1) lor Bool.to_int write) in
  let continue = ref true in
  while !continue do
    let b = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

(* The one decoder: a record's [count] entries, packed, into
   [dst.(0 .. count-1)].  [false] on any overrun, garbage or
   out-of-domain address — the caller treats the record as a corrupt
   tail, mirroring a CRC mismatch. *)
let decode_into payload count dst =
  let len = String.length payload in
  let pos = ref 0 and prev = ref 0 in
  match
    for i = 0 to count - 1 do
      let v = ref 0 and shift = ref 0 and continue = ref true in
      while !continue do
        if !pos >= len || !shift > 62 then raise Exit;
        let b = Char.code (String.unsafe_get payload !pos) in
        incr pos;
        v := !v lor ((b land 0x7f) lsl !shift);
        shift := !shift + 7;
        continue := b land 0x80 <> 0
      done;
      let a = !prev + unzigzag (!v lsr 1) in
      if not (in_domain a) then raise Exit;
      prev := a;
      dst.(i) <- pack a (!v land 1 = 1)
    done
  with
  | () -> !pos = len
  | exception Exit -> false

(* decode into a reused buffer, grown to the largest record seen *)
let decode_record dec payload count =
  if count > Array.length !dec then dec := Array.make count 0;
  decode_into payload count !dec

(* Store's u32 helpers are private to the journal; the trace file
   carries its own (same little-endian layout). *)
let write_u32 oc v =
  output_byte oc (v land 0xff);
  output_byte oc ((v lsr 8) land 0xff);
  output_byte oc ((v lsr 16) land 0xff);
  output_byte oc ((v lsr 24) land 0xff)

(* raises [End_of_file] when the stream ends mid-word *)
let read_u32 ic =
  let b0 = input_byte ic in
  let b1 = input_byte ic in
  let b2 = input_byte ic in
  let b3 = input_byte ic in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

type file_header = {
  fh_name : string;
  fh_total : int;
  fh_chunk : int;
}

let max_header_bytes = 1 lsl 20
let max_payload_bytes = 1 lsl 30

(* Foreign or corrupt headers are a *usage* error (wrong file), not a
   torn tail, so they raise [Invalid_argument] like other bad inputs. *)
let read_header ic ~path =
  let fail why = invalid_arg (Printf.sprintf "%s: %s" path why) in
  match
    let m = really_input_string ic (String.length magic) in
    if m <> magic then `Foreign
    else begin
      let hlen = read_u32 ic in
      if hlen > max_header_bytes then `Corrupt
      else
        let hdr = really_input_string ic hlen in
        let crc = read_u32 ic in
        if crc <> Engine.Crc32.crc hdr then `Corrupt
        else
          match Engine.Json.parse hdr with
          | Error _ -> `Corrupt
          | Ok j -> (
            let field name conv =
              Option.bind (Engine.Json.member name j) conv
            in
            match
              ( field "name" Engine.Json.to_str,
                field "total" Engine.Json.to_int,
                field "chunk" Engine.Json.to_int )
            with
            | Some fh_name, Some fh_total, Some fh_chunk
              when fh_total >= 0 && fh_chunk >= 1 ->
              `Header { fh_name; fh_total; fh_chunk }
            | _ -> `Corrupt)
    end
  with
  | `Header h -> h
  | `Foreign -> fail "not a PPTRC01 trace file"
  | `Corrupt -> fail "corrupt PPTRC01 header"
  | exception End_of_file -> fail "not a PPTRC01 trace file (truncated header)"

exception Corrupt_tail

(* [None] at a clean end-of-file (a record boundary); [Corrupt_tail] on
   anything torn — a partial word, short payload, or CRC mismatch. *)
let read_record ic =
  match input_byte ic with
  | exception End_of_file -> None
  | b0 -> (
    try
      let b1 = input_byte ic in
      let b2 = input_byte ic in
      let b3 = input_byte ic in
      let count = b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24) in
      let plen = read_u32 ic in
      if plen > max_payload_bytes || count > plen + 1 then raise Corrupt_tail;
      let payload = really_input_string ic plen in
      let crc = read_u32 ic in
      if crc <> Engine.Crc32.crc payload then raise Corrupt_tail;
      Some (count, payload)
    with End_of_file -> raise Corrupt_tail)

(* magic + header(total), the head of every PPTRC01 file *)
let write_head oc ~name ~total ~chunk =
  output_string oc magic;
  let hdr =
    Engine.Json.to_string
      (Engine.Json.Obj
         [
           ("name", Engine.Json.String name);
           ("total", Engine.Json.Int total);
           ("chunk", Engine.Json.Int chunk);
         ])
  in
  write_u32 oc (String.length hdr);
  output_string oc hdr;
  write_u32 oc (Engine.Crc32.crc hdr)

(* one chunk record from the [count] entries encoded in [buf] *)
let write_record oc buf count =
  let payload = Buffer.contents buf in
  write_u32 oc count;
  write_u32 oc (String.length payload);
  output_string oc payload;
  write_u32 oc (Engine.Crc32.crc payload)

let write_file ~path ~name ?(chunk_size = default_chunk_size) ~next ~n () =
  if n < 0 then invalid_arg "Stream_trace.write_file: n < 0";
  if chunk_size < 1 then invalid_arg "Stream_trace.write_file: chunk_size < 1";
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      write_head oc ~name ~total:n ~chunk:chunk_size;
      let buf = Buffer.create (min (4 * chunk_size) (1 lsl 22)) in
      let written = ref 0 in
      while !written < n do
        let count = min chunk_size (n - !written) in
        Buffer.clear buf;
        let prev = ref 0 in
        for _ = 1 to count do
          let (e : Trace.entry) = next () in
          check_addr ~where:"Stream_trace.write_file" e.addr;
          encode_entry buf !prev e.addr e.write;
          prev := e.addr
        done;
        write_record oc buf count;
        written := !written + count
      done)

type file_info = {
  fi_name : string;
  fi_total : int;
  fi_chunk_size : int;
  fi_chunks : int;
  fi_entries : int;
  fi_dropped_tail : bool;
}

let file_info path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let fh = read_header ic ~path in
      let dec = ref [||] in
      let chunks = ref 0 and entries = ref 0 in
      let dropped = ref false and stop = ref false in
      while not !stop do
        match read_record ic with
        | None -> stop := true
        | exception Corrupt_tail ->
          dropped := true;
          stop := true
        | Some (count, payload) ->
          (* decode too: [fi_entries] must be exactly what streaming
             yields, and streaming drops undecodable records *)
          if decode_record dec payload count then begin
            incr chunks;
            entries := !entries + count
          end
          else begin
            dropped := true;
            stop := true
          end
      done;
      if !dropped then Engine.Metrics.incr "stream.dropped_tail";
      {
        fi_name = fh.fh_name;
        fi_total = fh.fh_total;
        fi_chunk_size = fh.fh_chunk;
        fi_chunks = !chunks;
        fi_entries = !entries;
        fi_dropped_tail = !dropped;
      })

(* ---- sources --------------------------------------------------------- *)

type source =
  | Producer of {
      p_name : string;
      p_n : int;
      p_make : unit -> unit -> Trace.entry;
    }
  | Trace_src of { t_name : string; t_trace : Trace.t }
  | File of { f_path : string; f_header : file_header }
  | Fd of { d_name : string; d_fd : Unix.file_descr }

type t = {
  source : source;
  chunk_size : int;
  skey : string option;
}

let check_chunk_size cs =
  if cs < 1 then invalid_arg "Stream_trace: chunk_size < 1"

let of_producer ?(chunk_size = default_chunk_size) ?key ~name ~n make =
  check_chunk_size chunk_size;
  if n < 0 then invalid_arg "Stream_trace.of_producer: n < 0";
  {
    source = Producer { p_name = name; p_n = n; p_make = make };
    chunk_size;
    skey = key;
  }

let of_trace ?(chunk_size = default_chunk_size) ?key ~name trace =
  check_chunk_size chunk_size;
  { source = Trace_src { t_name = name; t_trace = trace }; chunk_size; skey = key }

let of_file ?(chunk_size = default_chunk_size) ?key path =
  check_chunk_size chunk_size;
  let ic = open_in_bin path in
  let header =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> read_header ic ~path)
  in
  let skey =
    match key with
    | Some _ -> key
    | None ->
      (* the stream's checkpoint identity: the recording plus the
         streaming grain (slots are per-chunk, so the grain is an
         input) *)
      Some
        (Printf.sprintf "pptrc:%s:%d:%d" header.fh_name header.fh_total
           chunk_size)
  in
  { source = File { f_path = path; f_header = header }; chunk_size; skey }

let of_ndjson_fd ?(chunk_size = default_chunk_size) ~name fd =
  check_chunk_size chunk_size;
  (* a pipe cannot be re-read, so the stream never gets a checkpoint
     identity: resumable folds degrade to plain folds *)
  { source = Fd { d_name = name; d_fd = fd }; chunk_size; skey = None }

let name t =
  match t.source with
  | Producer { p_name; _ } -> p_name
  | Trace_src { t_name; _ } -> t_name
  | File { f_header; _ } -> f_header.fh_name
  | Fd { d_name; _ } -> d_name

let chunk_size t = t.chunk_size
let key t = t.skey

let declared_length t =
  match t.source with
  | Producer { p_n; _ } -> Some p_n
  | Trace_src { t_trace; _ } -> Some (Trace.length t_trace)
  | File { f_header; _ } -> Some f_header.fh_total
  | Fd _ -> None

(* ---- feeds ----------------------------------------------------------- *)

(* A feed is a fill function plus its cleanup: [fill buf pos n] writes
   up to [n] packed entries into [buf] from [pos] and returns how many
   it wrote, 0 only once the stream is exhausted; [close] releases
   whatever backs it. *)

let file_feed path =
  let ic = open_in_bin path in
  let () =
    match read_header ic ~path with
    | _ -> ()
    | exception e ->
      close_in_noerr ic;
      raise e
  in
  let dec = ref [||] and dpos = ref 0 and dlen = ref 0 in
  let finished = ref false in
  let drop () =
    Engine.Metrics.incr "stream.dropped_tail";
    finished := true
  in
  let rec fill buf pos n =
    if !dpos < !dlen then begin
      let k = min n (!dlen - !dpos) and d = !dec and from = !dpos in
      for i = 0 to k - 1 do
        buf.(pos + i) <- d.(from + i)
      done;
      dpos := from + k;
      k
    end
    else if !finished then 0
    else
      match read_record ic with
      | None ->
        finished := true;
        0
      | exception Corrupt_tail ->
        drop ();
        0
      | Some (count, payload) ->
        if decode_record dec payload count then begin
          dpos := 0;
          dlen := count;
          fill buf pos n
        end
        else begin
          drop ();
          0
        end
  in
  (fill, fun () -> close_in_noerr ic)

(* The sources that yield one entry at a time: [next] returns a packed
   entry, or -1 at the end (packed entries are never negative). *)
let fill_from next buf pos n =
  let rec go k =
    if k >= n then k
    else
      let e = next () in
      if e < 0 then k
      else begin
        buf.(pos + k) <- e;
        go (k + 1)
      end
  in
  go 0

(* [n] entries pulled from [next_entry], each checked against the
   address domain *)
let entry_feed ~name ~n next_entry =
  let left = ref n and where = "Stream_trace " ^ name in
  let next () =
    if !left <= 0 then -1
    else begin
      decr left;
      let (e : Trace.entry) = next_entry () in
      check_addr ~where e.addr;
      pack e.addr e.write
    end
  in
  (fill_from next, fun () -> ())

let ndjson_feed ~name fd =
  let reader = Engine.Server.make_reader fd in
  let line_no = ref 0 in
  let fail line_no why =
    invalid_arg
      (Printf.sprintf "Stream_trace %s: NDJSON line %d: %s" name line_no why)
  in
  let rec next () =
    match Engine.Server.read_line reader with
    | Engine.Server.Eof | Engine.Server.Drained -> -1
    | Engine.Server.Overlong ->
      fail (!line_no + 1)
        (Printf.sprintf "line exceeds %d bytes" Engine.Server.max_line_bytes)
    | Engine.Server.Line line -> (
      incr line_no;
      if String.trim line = "" then next ()
      else
        match Engine.Json.parse line with
        | Error msg -> fail !line_no msg
        | Ok j -> (
          let addr = Option.bind (Engine.Json.member "addr" j) Engine.Json.to_int in
          let write =
            match Engine.Json.member "write" j with
            | Some (Engine.Json.Bool b) -> b
            | Some _ -> fail !line_no "\"write\" must be a boolean"
            | None -> false
          in
          match addr with
          | Some a when in_domain a -> pack a write
          | Some a when a < 0 -> fail !line_no "negative \"addr\""
          | Some _ -> fail !line_no "\"addr\" must be below 2^61"
          | None -> fail !line_no "missing or non-integer \"addr\""))
  in
  (fill_from next, fun () -> ())

let feed_of t =
  match t.source with
  | Producer { p_name; p_n; p_make } -> entry_feed ~name:p_name ~n:p_n (p_make ())
  | Trace_src { t_name; t_trace } ->
    let i = ref (-1) in
    entry_feed ~name:t_name ~n:(Trace.length t_trace) (fun () ->
        incr i;
        Trace.get t_trace !i)
  | File { f_path; _ } -> file_feed f_path
  | Fd { d_name; d_fd } -> ndjson_feed ~name:d_name d_fd

(* ---- folding --------------------------------------------------------- *)

let fold_chunks t ~init ~f =
  let fill, close = feed_of t in
  Fun.protect ~finally:close (fun () ->
      let cs = t.chunk_size in
      let stream_name = name t in
      (* one buffer serves every full chunk; it grows geometrically
         toward [cs] so a whole-trace chunk size never preallocates more
         than the stream holds *)
      let buf = ref (Array.make (min cs 4096) 0) in
      let acc = ref init in
      let index = ref 0 in
      let stop = ref false in
      while not !stop do
        let len = ref 0 in
        while !len < cs && not !stop do
          if !len = Array.length !buf then begin
            let bigger = Array.make (min cs (2 * !len)) 0 in
            Array.blit !buf 0 bigger 0 !len;
            buf := bigger
          end;
          let got = fill !buf !len (Array.length !buf - !len) in
          if got = 0 then stop := true else len := !len + got
        done;
        if !len > 0 then begin
          Engine.Deadline.poll ~stage:"cachesim.stream";
          let chunk = if !len = cs then !buf else Array.sub !buf 0 !len in
          acc := f !acc ~index:!index chunk;
          Engine.Metrics.incr "stream.chunks";
          Engine.Metrics.incr ~by:!len "stream.entries";
          if Engine.Events.enabled () then
            Engine.Events.emit
              (Engine.Events.Chunk_done
                 { stream = stream_name; index = !index; entries = !len });
          incr index
        end
      done;
      !acc)

let slot_key ~skey ~salt index =
  (* pseudo-task namespace "stream": no Sweep task carries that name,
     so slots can never collide with sweep results in a shared journal *)
  Printf.sprintf "stream\x00%s\x00%s:chunk:%d" skey salt index

let resumable_fold ?(salt = "") t ~init ~f =
  match t.skey with
  | Some skey when Engine.Sweep.journal_armed () ->
    fold_chunks t ~init ~f:(fun acc ~index chunk ->
        Engine.Sweep.journaled ~key:(slot_key ~skey ~salt index) (fun () ->
            f acc ~index chunk))
  | _ -> fold_chunks t ~init ~f

let iter t g =
  fold_chunks t ~init:0 ~f:(fun n ~index:_ chunk ->
      for i = 0 to Array.length chunk - 1 do
        let e = chunk.(i) in
        g (addr e) (is_write e)
      done;
      n + Array.length chunk)

(* ---- drivers --------------------------------------------------------- *)

let analyze t =
  let a = Trace.analyzer () in
  let (_ : int) = iter t (Trace.feed_analyzer a) in
  Trace.analyzer_stats a

(* Checkpoint salts must name every consumer-side input, so two
   replays of one stream through different geometries never serve each
   other's slots. *)
let policy_salt = function
  | Replacement.Random seed -> Printf.sprintf "random%d" seed
  | p -> Replacement.name p

let cache_salt c =
  Printf.sprintf "%d:%d:%d:%s" (Cache.size_bytes c) (Cache.assoc c)
    (Cache.block_bytes c)
    (policy_salt (Cache.policy c))

let replay t cache =
  let salt = "replay:" ^ cache_salt cache in
  resumable_fold ~salt t ~init:(cache, 0) ~f:(fun (c, n) ~index:_ chunk ->
      for i = 0 to Array.length chunk - 1 do
        let e = chunk.(i) in
        ignore (Cache.access c (addr e) ~write:(is_write e))
      done;
      (c, n + Array.length chunk))

let replay_hierarchy t h =
  let salt =
    Printf.sprintf "hier:%s:%s" (cache_salt (Hierarchy.l1 h))
      (cache_salt (Hierarchy.l2 h))
  in
  resumable_fold ~salt t ~init:(h, 0) ~f:(fun (h, n) ~index:_ chunk ->
      for i = 0 to Array.length chunk - 1 do
        let e = chunk.(i) in
        ignore (Hierarchy.access h (addr e) ~write:(is_write e))
      done;
      (h, n + Array.length chunk))

(* --- recording a stream of unknown length ---------------------------- *)

(* [write_file] needs [n] up front (the header declares the total), but
   a piped NDJSON source only learns its length at EOF.  Spool the
   encoded chunk records to a side file while counting, then assemble
   magic + header(total) + spooled records and commit with an atomic
   rename — O(chunk) memory, and no half-written file ever sits at
   [path].  Every source has already rejected out-of-domain addresses
   while filling the chunk. *)
let record_stream ~path t =
  let spool = path ^ ".spool" in
  let cleanup f = try Sys.remove f with Sys_error _ -> () in
  match
    let oc = open_out_bin spool in
    let total =
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          let buf = Buffer.create (min (4 * chunk_size t) (1 lsl 22)) in
          fold_chunks t ~init:0 ~f:(fun acc ~index:_ chunk ->
              Buffer.clear buf;
              let prev = ref 0 in
              for i = 0 to Array.length chunk - 1 do
                let a = addr chunk.(i) in
                encode_entry buf !prev a (is_write chunk.(i));
                prev := a
              done;
              write_record oc buf (Array.length chunk);
              acc + Array.length chunk))
    in
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        write_head oc ~name:(name t) ~total ~chunk:(chunk_size t);
        let ic = open_in_bin spool in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let block = Bytes.create 65536 in
            let rec copy () =
              let n = input ic block 0 (Bytes.length block) in
              if n > 0 then begin
                output oc block 0 n;
                copy ()
              end
            in
            copy ()));
    Sys.rename tmp path;
    cleanup spool;
    total
  with
  | total -> total
  | exception e ->
    cleanup spool;
    cleanup (path ^ ".tmp");
    raise e
