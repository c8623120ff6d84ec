(* Chunked streaming traces.

   The design constraint is byte-identity: for every chunk size, a
   streamed computation must produce results bitwise-equal to the same
   computation over a materialised [Trace.t].  Chunking therefore only
   decides *when* the engine seams fire (deadline polls, progress
   events, checkpoint slots) — never *what* the consumer observes.
   The test suite and the [oracle.stream] verify group enforce this
   across chunk sizes {1, 7, 4096, whole} and [--jobs] settings.

   Memory is O(chunk): a chunk buffer plus whatever the consumer
   carries.  The PPTRC01 reader additionally holds one record's payload
   bytes, in a buffer reused for every record, and — only when the
   reader's chunk is smaller than the file's records — one decoded
   record, so a file recorded at a huge chunk grain costs that grain;
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

(* The first address of [addr_at pos .. addr_at (pos + len - 1)]
   outside the domain raises, naming it: the pass a range takes only
   once a branchless OR over it has found one. *)
let reject_first ~where addr_at pos len =
  for i = pos to pos + len - 1 do
    check_addr ~where (addr_at i)
  done

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

(* The one decoder: the [count] entries of the record whose payload
   is [payload.[0 .. len-1]], packed, into [dst.(off .. off+count-1)].
   [false] on any overrun, garbage or out-of-domain address — the
   caller treats the record as a corrupt tail, mirroring a CRC
   mismatch.  Bytes of [payload] past [len] are never read.

   While 8 payload bytes remain, a varint of up to 7 bytes decodes
   from one 64-bit load [w], whose bytes 0-6 are exact ([Int64.to_int]
   drops only bit 63).  [stop] holds the clear continuation bits of
   those bytes, and its lowest one ends the varint; masking below it
   keeps the varint's bytes, and three mask-and-shift steps pack their
   7-bit groups (7 -> 14 -> 28 -> 56 bits).  Anything else — an 8- or
   9-byte varint, or one that starts in the payload's last 7 bytes —
   takes the byte loop, the only place an overrun or an overlong
   varint is rejected. *)
let decode_into payload len count dst off =
  if off < 0 || count < 0 || off > Array.length dst - count then
    invalid_arg "Stream_trace.decode_into";
  let pos = ref 0 and prev = ref 0 in
  match
    for i = 0 to count - 1 do
      let p = !pos in
      (* -1 has every continuation bit set: the byte loop's case *)
      let w =
        if p + 8 <= len then Int64.to_int (String.get_int64_le payload p) else -1
      in
      let stop = lnot w land 0x0080808080808080 in
      let v =
        if stop <> 0 then begin
          let low = stop land (-stop) in
          pos := p + ((((low lsr 7) * 0x0001020304050607) lsr 48) land 0xff);
          let x = w land ((low lsl 1) - 1) in
          let x = (x land 0x007f007f007f007f) lor ((x land 0x00007f007f007f00) lsr 1) in
          let x = (x land 0x00003fff00003fff) lor ((x land 0x3fff00003fff0000) lsr 2) in
          (x land 0x0fffffff) lor ((x land 0x0fffffff00000000) lsr 4)
        end
        else begin
          let v = ref 0 and shift = ref 0 and continue = ref true in
          while !continue do
            if !pos >= len || !shift > 62 then raise Exit;
            let b = Char.code (String.unsafe_get payload !pos) in
            incr pos;
            v := !v lor ((b land 0x7f) lsl !shift);
            shift := !shift + 7;
            continue := b land 0x80 <> 0
          done;
          !v
        end
      in
      let a = !prev + unzigzag (v lsr 1) in
      if not (in_domain a) then raise Exit;
      prev := a;
      Array.unsafe_set dst (off + i) (pack a (v land 1 = 1))
    done
  with
  | () -> !pos = len
  | exception Exit -> false

(* decode into a reused buffer, grown to the largest record seen *)
let decode_record dec payload len count =
  if count > Array.length !dec then dec := Array.make count 0;
  decode_into payload len count !dec 0

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

(* A record reader: every payload is read into [buf], one buffer
   reused for the whole file and grown to a power of two at least as
   long as the largest record, so a read allocates nothing once the
   buffer fits.  The current record's payload is [buf.[0 .. plen-1]]. *)
type reader = {
  ic : in_channel;
  mutable buf : Bytes.t;
  mutable plen : int;
}

let reader ic = { ic; buf = Bytes.empty; plen = 0 }

(* The payload as a string for the decoder and the CRC, which only
   read it: the buffer is not written again until the next record. *)
let payload r = Bytes.unsafe_to_string r.buf

(* The next record's entry count, its payload in [r]'s buffer; [-1] at
   a clean end-of-file (a record boundary); [Corrupt_tail] on anything
   torn — a partial word, short payload, or CRC mismatch. *)
let read_record r =
  let ic = r.ic in
  match input_byte ic with
  | exception End_of_file -> -1
  | b0 -> (
    try
      let b1 = input_byte ic in
      let b2 = input_byte ic in
      let b3 = input_byte ic in
      let count = b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24) in
      let plen = read_u32 ic in
      if plen > max_payload_bytes || count > plen + 1 then raise Corrupt_tail;
      if plen > Bytes.length r.buf then begin
        let size = ref 4096 in
        while !size < plen do
          size := 2 * !size
        done;
        r.buf <- Bytes.create !size
      end;
      really_input ic r.buf 0 plen;
      r.plen <- plen;
      let crc = read_u32 ic in
      if crc <> Engine.Crc32.update_sub Engine.Crc32.init (payload r) 0 plen then
        raise Corrupt_tail;
      count
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
      let r = reader ic and dec = ref [||] in
      let chunks = ref 0 and entries = ref 0 in
      let dropped = ref false and stop = ref false in
      while not !stop do
        match read_record r with
        | -1 -> stop := true
        | exception Corrupt_tail ->
          dropped := true;
          stop := true
        | count ->
          (* decode too: [fi_entries] must be exactly what streaming
             yields, and streaming drops undecodable records *)
          if decode_record dec (payload r) r.plen count then begin
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
      p_make : unit -> int array -> int -> int -> unit;
    }
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

let of_trace ?chunk_size ?key ~name trace =
  let where = "Stream_trace " ^ name in
  of_producer ?chunk_size ?key ~name ~n:(Trace.length trace) (fun () ->
      let next = ref 0 in
      fun buf pos len ->
        let start = !next and bits = ref 0 in
        for k = 0 to len - 1 do
          let e = Trace.get trace (start + k) in
          bits := !bits lor e.addr;
          buf.(pos + k) <- pack e.addr e.write
        done;
        (* checked on the addresses: packing would wrap a negative one *)
        if not (in_domain !bits) then
          reject_first ~where (fun i -> (Trace.get trace i).addr) start len;
        next := start + len)

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
  | File { f_header; _ } -> f_header.fh_name
  | Fd { d_name; _ } -> d_name

let chunk_size t = t.chunk_size
let key t = t.skey

let declared_length t =
  match t.source with
  | Producer { p_n; _ } -> Some p_n
  | File { f_header; _ } -> Some f_header.fh_total
  | Fd _ -> None

(* ---- feeds ----------------------------------------------------------- *)

(* A feed is a fill function, its cleanup and a first buffer size:
   [fill buf pos n] writes up to [n] packed entries into [buf] from
   [pos] and returns how many it wrote, 0 only once the stream is
   exhausted; [close] releases whatever backs it; [first] is how many
   entries the stream is expected to yield, so the fold can size its
   chunk buffer once instead of growing it. *)
type feed = {
  fill : int array -> int -> int -> int;
  close : unit -> unit;
  first : int;
}

(* A record that fits the space [fill] is asked to fill is decoded
   straight into the fold's chunk.  One that does not (the reader's
   chunk is smaller than the file's records, or the chunk is nearly
   full) is decoded into [dec], the staged copy, and handed out
   piecewise. *)
let file_feed path =
  let ic = open_in_bin path in
  let first =
    match read_header ic ~path with
    (* every entry takes at least one byte of the file *)
    | h -> min h.fh_total (in_channel_length ic)
    | exception e ->
      close_in_noerr ic;
      raise e
  in
  let r = reader ic in
  let dec = ref [||] and dpos = ref 0 and dlen = ref 0 in
  let finished = ref false in
  let drop () =
    Engine.Metrics.incr "stream.dropped_tail";
    finished := true;
    0
  in
  let rec fill buf pos n =
    if !dpos < !dlen then begin
      let k = min n (!dlen - !dpos) in
      Array.blit !dec !dpos buf pos k;
      dpos := !dpos + k;
      k
    end
    else if !finished then 0
    else
      match read_record r with
      | -1 ->
        finished := true;
        0
      | exception Corrupt_tail -> drop ()
      | count when count <= n ->
        if not (decode_into (payload r) r.plen count buf pos) then drop ()
        else if count = 0 then fill buf pos n
        else count
      | count ->
        if decode_record dec (payload r) r.plen count then begin
          dpos := 0;
          dlen := count;
          fill buf pos n
        end
        else drop ()
  in
  { fill; close = (fun () -> close_in_noerr ic); first }

(* The NDJSON pipe yields one entry at a time: [next] returns a packed
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

(* [n] packed entries written a range at a time by [fill], each range
   checked against the address domain at once: an entry is negative
   exactly when its address, [e lsr 1], is 2^61 or more, so the OR of
   the range is negative exactly when one is out of the domain *)
let range_feed ~name ~n fill =
  let left = ref n and where = "Stream_trace " ^ name in
  let fill buf pos len =
    let len = min len !left in
    if len > 0 then begin
      fill buf pos len;
      let bits = ref 0 in
      for i = pos to pos + len - 1 do
        bits := !bits lor buf.(i)
      done;
      if !bits < 0 then reject_first ~where (fun i -> addr buf.(i)) pos len;
      left := !left - len
    end;
    len
  in
  { fill; close = ignore; first = n }

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
  (* a pipe's length is unknown until it ends *)
  { fill = fill_from next; close = ignore; first = 4096 }

let feed_of t =
  match t.source with
  | Producer { p_name; p_n; p_make } -> range_feed ~name:p_name ~n:p_n (p_make ())
  | File { f_path; _ } -> file_feed f_path
  | Fd { d_name; d_fd } -> ndjson_feed ~name:d_name d_fd

(* ---- folding --------------------------------------------------------- *)

let fold_chunks t ~init ~f =
  let { fill; close; first } = feed_of t in
  Fun.protect ~finally:close (fun () ->
      let cs = t.chunk_size in
      let stream_name = name t in
      (* one buffer serves every full chunk; it starts at what the feed
         expects and grows geometrically toward [cs] beyond that, so a
         whole-trace chunk size never preallocates more than the stream
         can hold *)
      let buf = ref (Array.make (max 1 (min cs first)) 0) in
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

(* A slot holds a marshalled fold state (a [Cache.t], and with it an
   [Rng.t]; `simulate --trace-file` adds a [Trace.analyzer]), and
   unmarshalling a state of another layout as the current one is
   memory-unsafe.  Slot keys therefore name the state format: bump it
   with any such layout change, so an older journal's slots miss and
   are recomputed. *)
let state_format = "intmap-analyzer"

let slot_key ~skey ~salt index =
  (* pseudo-task namespace "stream": no Sweep task carries that name,
     so slots can never collide with sweep results in a shared journal *)
  Printf.sprintf "stream\x00%s\x00%s:chunk:%d:%s" skey salt index state_format

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
      Cache.run c chunk 0 (Array.length chunk);
      (c, n + Array.length chunk))

let replay_hierarchy t p =
  let salt =
    Printf.sprintf "hier:%s:%s" (cache_salt p.Cache.l1) (cache_salt p.Cache.l2)
  in
  resumable_fold ~salt t ~init:(p, 0) ~f:(fun (p, n) ~index:_ chunk ->
      Cache.run_pair p chunk 0 (Array.length chunk);
      (p, n + Array.length chunk))

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
