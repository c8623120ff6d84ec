(* Live progress events: an append-only NDJSON stream and/or a
   human-readable progress feed on stderr.

   Events never touch stdout — the byte-identity contract for result
   output holds at any [--jobs] with events enabled.  Under parallel
   execution the *arrival order* of slot_done events is scheduling-
   dependent, so each emitted line carries a sequence number assigned
   under the sink mutex: consumers order by [seq], not by wall clock,
   and the stream stays valid NDJSON because the mutex also makes each
   line a single atomic write.  Within one fan-out, [Sweep] emits each
   slot_done under the fan-out's own lock, so its [done] count rises
   with [seq]: the last one read in [seq] order has done = total.

   The module is off by default and costs one atomic load per
   [emit]-site check when disabled. *)

let schema_version = 1

type event =
  | Sweep_started of { name : string; total : int }
  | Slot_done of {
      name : string;
      index : int;
      completed : int;  (* slots finished in this fan-out, including this one *)
      total : int;
      memo_hits : int;  (* cumulative across the run, not per-slot *)
      faults : int;
      retries : int;
    }
  | Checkpoint_replayed of { dir : string; replayed : int }
  | Experiment_done of { id : string }
  | Chunk_done of {
      stream : string;  (* stream name *)
      index : int;      (* chunk index, 0-based *)
      entries : int;    (* entries in this chunk *)
    }
  | Conn_opened of { id : int }
  | Conn_closed of { id : int; requests : int }
  | Conn_shed of { id : int }

let to_json ~seq ev =
  (* each line is self-describing: an NDJSON stream has no envelope to
     carry the schema version, so every event repeats it *)
  let base kind fields =
    Json.Obj
      (("schema_version", Json.Int schema_version)
      :: ("seq", Json.Int seq)
      :: ("event", Json.String kind)
      :: fields)
  in
  match ev with
  | Sweep_started { name; total } ->
    base "sweep_started"
      [ ("name", Json.String name); ("total", Json.Int total) ]
  | Slot_done { name; index; completed; total; memo_hits; faults; retries } ->
    base "slot_done"
      [
        ("name", Json.String name);
        ("index", Json.Int index);
        ("done", Json.Int completed);
        ("total", Json.Int total);
        ("memo_hits", Json.Int memo_hits);
        ("faults", Json.Int faults);
        ("retries", Json.Int retries);
      ]
  | Checkpoint_replayed { dir; replayed } ->
    base "checkpoint_replayed"
      [ ("dir", Json.String dir); ("replayed", Json.Int replayed) ]
  | Experiment_done { id } -> base "experiment_done" [ ("id", Json.String id) ]
  | Chunk_done { stream; index; entries } ->
    base "chunk_done"
      [
        ("stream", Json.String stream);
        ("index", Json.Int index);
        ("entries", Json.Int entries);
      ]
  | Conn_opened { id } -> base "conn_opened" [ ("id", Json.Int id) ]
  | Conn_closed { id; requests } ->
    base "conn_closed" [ ("id", Json.Int id); ("requests", Json.Int requests) ]
  | Conn_shed { id } -> base "conn_shed" [ ("id", Json.Int id) ]

let render ev =
  match ev with
  | Sweep_started { name; total } ->
    Printf.sprintf "sweep %s: started (%d slots)" name total
  | Slot_done { name; completed; total; memo_hits; faults; retries; _ } ->
    Printf.sprintf "sweep %s: %d/%d done (memo %d, faults %d, retries %d)"
      name completed total memo_hits faults retries
  | Checkpoint_replayed { dir; replayed } ->
    Printf.sprintf "checkpoint %s: replayed %d slot(s)" dir replayed
  | Experiment_done { id } -> Printf.sprintf "experiment %s: done" id
  | Chunk_done { stream; index; entries } ->
    Printf.sprintf "stream %s: chunk %d done (%d entries)" stream index entries
  | Conn_opened { id } -> Printf.sprintf "conn %d: opened" id
  | Conn_closed { id; requests } ->
    Printf.sprintf "conn %d: closed (%d requests)" id requests
  | Conn_shed { id } -> Printf.sprintf "conn %d: shed (at capacity)" id

(* ---- sink ------------------------------------------------------------ *)

let mutex = Mutex.create ()
let armed = Atomic.make false (* cheap disabled-path check *)
let seq = ref 0
let sink : out_channel option ref = ref None
let progress = ref false

let refresh_armed () = Atomic.set armed (!sink <> None || !progress)

let set_file path =
  Mutex.protect mutex (fun () ->
      (match !sink with Some oc -> close_out_noerr oc | None -> ());
      sink := Some (open_out path);
      refresh_armed ())

let set_progress on =
  Mutex.protect mutex (fun () ->
      progress := on;
      refresh_armed ())

let close () =
  Mutex.protect mutex (fun () ->
      (match !sink with Some oc -> close_out_noerr oc | None -> ());
      sink := None;
      progress := false;
      seq := 0;
      Atomic.set armed false)

let enabled () = Atomic.get armed

let emit ev =
  if Atomic.get armed then
    Mutex.protect mutex (fun () ->
        if !sink <> None || !progress then begin
          let n = !seq in
          seq := n + 1;
          (match !sink with
          | Some oc ->
            output_string oc (Json.to_string (to_json ~seq:n ev));
            output_char oc '\n';
            flush oc
          | None -> ());
          if !progress then begin
            output_string stderr ("[progress] " ^ render ev ^ "\n");
            flush stderr
          end
        end)
