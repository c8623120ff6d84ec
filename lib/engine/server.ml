(* Generic NDJSON serve loop (see the .mli for the contract). *)

type stats = { requests : int; responses : int; drained : bool }

type handler = line:string -> string * (unit -> unit)

let max_line_bytes = 1_048_576

(* --- drain flag ------------------------------------------------------ *)

let drain_flag = Atomic.make false
let request_drain () = Atomic.set drain_flag true
let drain_requested () = Atomic.get drain_flag
let reset_drain () = Atomic.set drain_flag false

let install_drain_signals () =
  let handle = Sys.Signal_handle (fun _ -> request_drain ()) in
  Sys.set_signal Sys.sigterm handle;
  Sys.set_signal Sys.sigint handle

let inflight_count = Atomic.make 0
let inflight () = Atomic.get inflight_count

(* --- global admission limiter ---------------------------------------- *)

(* Bounds the total in-flight requests across every connection of a
   server.  [reserve] grants as many of [want] slots as remain (CAS
   loop — connection threads race on it); requests beyond the grant are
   answered with the caller's shed response instead of buffered. *)

type limiter = { capacity : int; inflight_slots : int Atomic.t }

let make_limiter ~capacity =
  if capacity < 1 then invalid_arg "Server.make_limiter: capacity < 1";
  { capacity; inflight_slots = Atomic.make 0 }

let reserve l want =
  let rec go () =
    let cur = Atomic.get l.inflight_slots in
    let grant = max 0 (min want (l.capacity - cur)) in
    if grant = 0 then 0
    else if Atomic.compare_and_set l.inflight_slots cur (cur + grant) then grant
    else go ()
  in
  go ()

let release l n = ignore (Atomic.fetch_and_add l.inflight_slots (-n))

(* --- buffered line reader ------------------------------------------- *)

(* A hand-rolled reader over Unix.read rather than an in_channel: we
   need EINTR to surface (a SIGTERM must be able to interrupt a
   blocking read so drain never hangs on a silent pipe) and we need to
   discard overlong lines in bounded memory.  EAGAIN/EWOULDBLOCK (a
   socket with SO_RCVTIMEO, set so connection threads re-check the
   drain flag periodically) is treated as "no bytes yet": check drain,
   then retry. *)

type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable pos : int;  (* unread window is chunk[pos, len) *)
  mutable len : int;
  pending : Buffer.t; (* partial line carried across refills *)
  mutable eof : bool;
}

let make_reader fd =
  {
    fd;
    chunk = Bytes.create 65536;
    pos = 0;
    len = 0;
    pending = Buffer.create 256;
    eof = false;
  }

type read_result = Line of string | Overlong | Eof | Drained

(* index of '\n' in chunk[pos, len), or None *)
let find_newline r =
  let rec go i = if i >= r.len then None else if Bytes.get r.chunk i = '\n' then Some i else go (i + 1) in
  go r.pos

let refill r =
  (* returns false on EOF or drain; true when bytes arrived *)
  let rec go () =
    match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
    | 0 ->
      r.eof <- true;
      false
    | n ->
      r.pos <- 0;
      r.len <- n;
      true
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if drain_requested () then false else go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      if drain_requested () then false else go ()
  in
  go ()

let take_line r =
  let line = Buffer.contents r.pending in
  Buffer.clear r.pending;
  (* tolerate CRLF input *)
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  if String.length line > max_line_bytes then Overlong else Line line

(* discard input until the next newline (the tail of an overlong line),
   in bounded memory *)
let rec discard_line r =
  match find_newline r with
  | Some i ->
    r.pos <- i + 1;
    Overlong
  | None ->
    r.pos <- r.len;
    if r.eof then Overlong
    else if refill r then discard_line r
    else if drain_requested () && not r.eof then Drained
    else Overlong (* EOF inside the overlong line: still reject it *)

let rec read_line r =
  match find_newline r with
  | Some i ->
    Buffer.add_subbytes r.pending r.chunk r.pos (i - r.pos);
    r.pos <- i + 1;
    take_line r
  | None ->
    Buffer.add_subbytes r.pending r.chunk r.pos (r.len - r.pos);
    r.pos <- r.len;
    if Buffer.length r.pending > max_line_bytes then begin
      (* stop buffering; eat the rest of the line off the wire *)
      Buffer.clear r.pending;
      discard_line r
    end
    else if r.eof then
      if Buffer.length r.pending > 0 then take_line r else Eof
    else if refill r then read_line r
    else if drain_requested () && not r.eof then Drained
    else if Buffer.length r.pending > 0 then take_line r
    else Eof

(* true when the next [read_line] can make progress without blocking:
   a complete line is already buffered, EOF was seen, or the fd has
   bytes ready.  Used to keep batch gathering non-greedy — the loop
   blocks only for the {e first} line of a batch, then takes whatever
   is already available, so a lone warm query on an open pipe or
   socket is answered immediately instead of waiting for the queue to
   fill.  (A writer that trickles a partial line can still make the
   subsequent read block; drain via EINTR covers that.) *)
let input_pending r =
  find_newline r <> None || r.eof
  ||
  match Unix.select [ r.fd ] [] [] 0.0 with
  | [ _ ], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* --- the loop -------------------------------------------------------- *)

type item = Req of string | Too_long

let serve ?(queue = 64) ?limiter ?(shed_response = fun () -> "")
    ?dispatch_lock ~pool ~handler ~crash_response ~overlong_response ~input
    ~output () =
  if queue < 1 then invalid_arg "Server.serve: queue < 1";
  let r = make_reader input in
  let requests = ref 0 in
  let responses = ref 0 in
  let drained = ref false in
  let stop = ref false in
  let locked f =
    match dispatch_lock with None -> f () | Some m -> Mutex.protect m f
  in
  while not !stop do
    (* gather up to [queue] request lines — the bounded in-flight
       window.  Batch size never depends on the pool width. *)
    let batch = ref [] in
    let n = ref 0 in
    let gathering = ref true in
    while !gathering && (not !stop) && !n < queue do
      (* a drain requested at any point (signal, or a handler in the
         previous batch): stop reading; the lines already gathered are
         the in-flight work that still completes *)
      if drain_requested () then begin
        drained := true;
        stop := true
      end
      else if !n > 0 && not (input_pending r) then
        (* non-greedy batching: never block holding gathered requests —
           dispatch what we have and come back for more *)
        gathering := false
      else
        match read_line r with
        | Line l ->
          incr n;
          batch := Req l :: !batch
        | Overlong ->
          Metrics.incr "serve.overlong";
          incr n;
          batch := Too_long :: !batch
        | Eof -> stop := true
        | Drained ->
          drained := true;
          stop := true
    done;
    if drain_requested () && not !stop then begin
      drained := true;
      stop := true
    end;
    let items = Array.of_list (List.rev !batch) in
    if Array.length items > 0 then begin
      requests := !requests + Array.length items;
      Metrics.incr ~by:(Array.length items) "serve.requests";
      (* global admission: items beyond the grant are shed, never
         buffered.  Without a limiter everything is granted. *)
      let granted =
        match limiter with
        | None -> Array.length items
        | Some l -> reserve l (Array.length items)
      in
      let work = Array.sub items 0 granted in
      ignore (Atomic.fetch_and_add inflight_count granted);
      (* fault boundary per request: a handler that raises yields an
         Error slot, everything else still completes.  The dispatch
         lock (socket mode) serializes pool fan-outs across connection
         threads — the pool is one domain set, not per-connection. *)
      let results =
        locked (fun () ->
            Pool.map_array_result pool
              (fun item ->
                match item with
                | Too_long -> (overlong_response (), fun () -> ())
                | Req line -> handler ~line)
              work)
      in
      ignore (Atomic.fetch_and_add inflight_count (-granted));
      (match limiter with None -> () | Some l -> release l granted);
      let shed = Array.length items - granted in
      if shed > 0 then Metrics.incr ~by:shed "serve.shed";
      (* settle + respond in request order: the deterministic seam *)
      Array.iteri
        (fun i item ->
          let line, settle =
            if i < granted then
              match results.(i) with
              | Ok pair -> pair
              | Error exn ->
                let fault = Fault.of_exn ~stage:"serve.request" exn in
                let raw = match item with Req l -> l | Too_long -> "" in
                (crash_response ~line:raw fault, fun () -> ())
            else (shed_response (), fun () -> ())
          in
          settle ();
          output_string output line;
          output_char output '\n';
          (* flush per response: a SIGKILL can truncate at most the
             line being written, and a downstream consumer sees
             answers as they land *)
          flush output;
          incr responses;
          Metrics.incr "serve.responses")
        items
    end
  done;
  { requests = !requests; responses = !responses; drained = !drained }

(* --- the concurrent Unix-socket front end ----------------------------- *)

(* One thread per accepted connection, up to [max_conns]; a connection
   beyond the cap is shed with a single overloaded line.  Each thread
   runs the same [serve] loop over its own bounded reader and queue, so
   per-connection response streams keep the solo-run byte-identity
   contract; the shared [dispatch_lock] serializes pool fan-outs (the
   domain pool is process-wide, and its in-worker marker is
   domain-local, not thread-local), and the shared [limiter] bounds
   total in-flight lines.

   Drain never hangs: the accept loop polls with a short select
   timeout, and every client socket carries SO_RCVTIMEO so a thread
   blocked in read re-checks the drain flag periodically (the EAGAIN
   path in [refill]). *)

let conn_poll_interval = 0.25

(* a stale socket left by a dead server is replaced; anything else at
   the path is not the server's to delete *)
let check_socket_path path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> true
  | _ ->
    invalid_arg
      (Printf.sprintf "Server.serve_unix_socket: %s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false

let serve_unix_socket ?(queue = 64) ?(max_conns = 4) ?global_queue
    ?(write_timeout = 10.) ~pool ~handler ~crash_response ~overlong_response
    ~shed_response ~path () =
  if max_conns < 1 then invalid_arg "Server.serve_unix_socket: max_conns < 1";
  let global_queue =
    match global_queue with
    | Some g ->
      if g < 1 then invalid_arg "Server.serve_unix_socket: global_queue < 1";
      g
    | None -> max_conns * queue
  in
  let limiter = make_limiter ~capacity:global_queue in
  let dispatch_lock = Mutex.create () in
  if check_socket_path path then Unix.unlink path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let bound = ref false in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      if !bound then try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      bound := true;
      Unix.listen sock (max_conns + 8);
      let agg = Mutex.create () in
      let requests = ref 0 in
      let responses = ref 0 in
      let drained = ref false in
      let threads = ref [] in
      let active = Atomic.make 0 in
      let serial = ref 0 in
      let set_conn_gauge () =
        Metrics.set_gauge "serve.active_connections" (float_of_int (Atomic.get active))
      in
      let handle_conn ~id client =
        (* read timeout: drain responsiveness (see module comment);
           write timeout: a stalled client drops only its own
           connection, not the server *)
        (try Unix.setsockopt_float client Unix.SO_RCVTIMEO conn_poll_interval
         with Unix.Unix_error _ | Invalid_argument _ -> ());
        if write_timeout > 0. then
          (try Unix.setsockopt_float client Unix.SO_SNDTIMEO write_timeout
           with Unix.Unix_error _ | Invalid_argument _ -> ());
        let output = Unix.out_channel_of_descr client in
        let served_requests = ref 0 in
        (match
           serve ~queue ~limiter ~shed_response ~dispatch_lock ~pool ~handler
             ~crash_response ~overlong_response ~input:client ~output ()
         with
        | s ->
          served_requests := s.requests;
          Mutex.protect agg (fun () ->
              requests := !requests + s.requests;
              responses := !responses + s.responses;
              if s.drained then drained := true)
        | exception (Sys_error _ | Unix.Unix_error _) ->
          (* slow or vanished client (SO_SNDTIMEO expiry, EPIPE,
             ECONNRESET): drop this connection only *)
          Metrics.incr "serve.conn_dropped");
        (try close_out output with Sys_error _ -> ());
        ignore (Atomic.fetch_and_add active (-1));
        set_conn_gauge ();
        if Events.enabled () then
          Events.emit (Events.Conn_closed { id; requests = !served_requests })
      in
      let stop = ref false in
      while not !stop do
        if drain_requested () then begin
          drained := true;
          stop := true
        end
        else
          match Unix.select [ sock ] [] [] conn_poll_interval with
          | [], _, _ -> ()
          | _ :: _, _, _ -> (
            match Unix.accept sock with
            | client, _ ->
              incr serial;
              let id = !serial in
              if Atomic.get active >= max_conns then begin
                (* at capacity: one overloaded line, then close *)
                Metrics.incr "serve.shed_conns";
                if Events.enabled () then Events.emit (Events.Conn_shed { id });
                let oc = Unix.out_channel_of_descr client in
                (try
                   output_string oc (shed_response ());
                   output_char oc '\n';
                   flush oc
                 with Sys_error _ -> ());
                try close_out oc with Sys_error _ -> ()
              end
              else begin
                ignore (Atomic.fetch_and_add active 1);
                set_conn_gauge ();
                if Events.enabled () then Events.emit (Events.Conn_opened { id });
                let th = Thread.create (fun () -> handle_conn ~id client) () in
                threads := th :: !threads
              end
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      List.iter Thread.join !threads;
      let drained = !drained || drain_requested () in
      { requests = !requests; responses = !responses; drained })
