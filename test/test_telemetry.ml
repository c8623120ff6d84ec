(* Telemetry v2 suite: live progress events (NDJSON stream shape,
   sequence numbers, sweep/checkpoint/experiment hooks), resource
   accounting (a span's exact minor words, the traced span's own
   allocation, the process summary in the v4 metrics report) and atomic
   report writes.

   The event sink is process-wide, so every test that arms it closes
   it in a [Fun.protect] finally. *)

module Json = Nmcache_engine.Json
module Metrics = Nmcache_engine.Metrics
module Span = Nmcache_engine.Span
module Obs = Nmcache_engine.Obs
module Trace = Nmcache_engine.Trace
module Events = Nmcache_engine.Events
module Store = Nmcache_engine.Store
module Fault = Nmcache_engine.Fault
module Pool = Nmcache_engine.Pool
module Task = Nmcache_engine.Task
module Sweep = Nmcache_engine.Sweep

let tmp_counter = ref 0

let tmpfile suffix =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ppcache-telemetry-%d-%d%s" (Unix.getpid ()) !tmp_counter suffix)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_events path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> l <> "")
  |> List.map Json.parse_exn

let with_event_file f =
  let path = tmpfile ".ndjson" in
  Events.set_file path;
  Fun.protect
    ~finally:(fun () ->
      Events.close ();
      Metrics.reset ();
      Trace.reset ();
      Fault.reset ())
    (fun () -> f path)

let str j name = Option.bind (Json.member name j) Json.to_str
let int_of j name = Option.bind (Json.member name j) Json.to_int

(* --- events ----------------------------------------------------------- *)

let test_events_disabled_by_default () =
  Alcotest.(check bool) "sink off" false (Events.enabled ());
  (* emitting with no sink must be a silent no-op *)
  Events.emit (Events.Experiment_done { id = "noop" })

let test_events_stream_shape () =
  with_event_file (fun path ->
      Alcotest.(check bool) "sink armed" true (Events.enabled ());
      let task = Task.make ~name:"telemetry.kernel" (fun i -> i * 2) in
      let out = Sweep.map_array ~pool:(Pool.create ~jobs:4) task (Array.init 12 Fun.id) in
      Alcotest.(check int) "sweep result intact" 22 out.(11);
      Events.close ();
      let events = read_events path in
      (* one sweep_started + one slot_done per slot *)
      Alcotest.(check int) "event count" 13 (List.length events);
      let seqs = List.map (fun e -> Option.get (int_of e "seq")) events in
      Alcotest.(check (list int)) "seq contiguous from 0"
        (List.init 13 Fun.id) (List.sort compare seqs);
      (match List.find_opt (fun e -> str e "event" = Some "sweep_started") events with
      | Some e ->
        Alcotest.(check (option string)) "sweep name" (Some "telemetry.kernel")
          (str e "name");
        Alcotest.(check (option int)) "sweep total" (Some 12) (int_of e "total")
      | None -> Alcotest.fail "no sweep_started event");
      let slot_dones =
        List.filter (fun e -> str e "event" = Some "slot_done") events
      in
      Alcotest.(check int) "one slot_done per slot" 12 (List.length slot_dones);
      (* completion counts are a permutation of 1..12; the largest
         equals the sweep size — the analyzer's progress invariant *)
      let dones = List.sort compare (List.map (fun e -> Option.get (int_of e "done")) slot_dones) in
      Alcotest.(check (list int)) "done counts 1..12" (List.init 12 (fun i -> i + 1)) dones;
      let indices = List.sort compare (List.map (fun e -> Option.get (int_of e "index")) slot_dones) in
      Alcotest.(check (list int)) "indices 0..11" (List.init 12 Fun.id) indices;
      List.iter
        (fun e ->
          Alcotest.(check (option int)) "total on each slot_done" (Some 12)
            (int_of e "total");
          Alcotest.(check bool) "memo/fault/retry fields present" true
            (int_of e "memo_hits" <> None && int_of e "faults" <> None
           && int_of e "retries" <> None))
        slot_dones)

(* Read in [seq] order, one fan-out's slot_done events count done =
   1..n: each is built and emitted under the fan-out's lock.  Kernels
   that finish together on several domains race for the sink, so a
   count taken outside that lock reaches it out of order.  Twenty
   fan-outs of 32 cheap slots on four domains, one after another, so
   each fan-out's events are contiguous in [seq]. *)
let test_slot_done_in_seq_order () =
  with_event_file (fun path ->
      let pool = Pool.create ~jobs:4 in
      let task = Task.make ~name:"telemetry.order" (fun i -> i + 1) in
      let fanouts = 20 and slots = 32 in
      for _ = 1 to fanouts do
        ignore (Sweep.map_array ~pool task (Array.init slots Fun.id))
      done;
      Events.close ();
      let events =
        List.sort
          (fun a b -> compare (int_of a "seq") (int_of b "seq"))
          (read_events path)
      in
      let dones =
        List.filter_map
          (fun e -> if str e "event" = Some "slot_done" then int_of e "done" else None)
          events
      in
      Alcotest.(check (list int)) "done rises with seq in every fan-out"
        (List.concat (List.init fanouts (fun _ -> List.init slots (fun i -> i + 1))))
        dones)

let test_events_checkpoint_replayed () =
  with_event_file (fun path ->
      incr tmp_counter;
      let dir =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "ppcache-telemetry-ckpt-%d-%d" (Unix.getpid ()) !tmp_counter)
      in
      let s = Store.open_fresh ~dir in
      Store.add s ~ns:"slot" ~key:"k1" 1;
      Store.add s ~ns:"slot" ~key:"k2" 2;
      Store.close s;
      (* the event fires when the replayed store is armed as the journal *)
      let s2 = Store.open_ ~dir in
      Sweep.set_journal (Some s2);
      Sweep.set_journal None;
      Store.close s2;
      Events.close ();
      match
        List.find_opt
          (fun e -> str e "event" = Some "checkpoint_replayed")
          (read_events path)
      with
      | Some e ->
        Alcotest.(check (option int)) "replayed count" (Some 2) (int_of e "replayed");
        Alcotest.(check (option string)) "dir recorded" (Some dir) (str e "dir")
      | None -> Alcotest.fail "no checkpoint_replayed event")

let test_events_render () =
  let line =
    Events.render
      (Events.Slot_done
         {
           name = "s";
           index = 3;
           completed = 4;
           total = 9;
           memo_hits = 1;
           faults = 0;
           retries = 2;
         })
  in
  Alcotest.(check string) "progress line" "sweep s: 4/9 done (memo 1, faults 0, retries 2)" line

(* --- resource --------------------------------------------------------- *)

let test_resource_summary_fields () =
  let j = Option.get (Json.member "resource" (Obs.metrics_report ())) in
  Alcotest.(check (list string)) "the 11 fields"
    [
      "wall_s"; "minor_words"; "promoted_words"; "major_words"; "allocated_words";
      "minor_collections"; "major_collections"; "forced_major_collections";
      "compactions"; "heap_words"; "peak_heap_words";
    ]
    (match j with Json.Obj fields -> List.map fst fields | _ -> []);
  Alcotest.(check bool) "peak heap positive" true
    (match Option.bind (Json.member "peak_heap_words" j) Json.to_int with
    | Some words -> words > 0
    | None -> false)

let test_metrics_report_v4_resource () =
  let report = Obs.metrics_report () in
  Alcotest.(check (option int)) "schema v4" (Some 4)
    (Option.bind (Json.member "schema_version" report) Json.to_int);
  match Json.member "resource" report with
  | Some (Json.Obj fields) ->
    Alcotest.(check bool) "resource section non-empty" true (fields <> [])
  | _ -> Alcotest.fail "resource section missing"

(* run [f] with spans recorded, then drop them *)
let traced f =
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.reset ())
    f

let test_span_carries_resource_attrs () =
  traced (fun () ->
      (* one 100-element array is exactly 101 minor words (header and
         fields), far below a minor heap: the count must be exact, not
         rounded to the last minor collection *)
      Span.with_span "alloc" (fun () -> ignore (Sys.opaque_identity (Array.make 100 0)));
      match Span.spans () with
      | [ s ] ->
        (match Option.bind (List.assoc_opt "minor_words" s.Span.attrs) Json.to_float with
        | Some words ->
          if words < 101.0 || words > 101.0 +. 8.0 then
            Alcotest.failf "minor_words %.0f, want 101 (+ at most 8 of bookkeeping)" words
        | None -> Alcotest.fail "no numeric minor_words attr");
        Alcotest.(check (list string)) "one resource attr" [ "minor_words" ]
          (List.map fst s.Span.attrs)
      | l -> Alcotest.failf "expected one span, got %d" (List.length l))

(* A traced span allocates 34 words of its own on OCaml 5.1 (its record,
   boxed times, attribute and list cells); the gate leaves about 10 %.
   Sampling [Gc.quick_stat] at both edges cost 145. *)
let test_span_alloc_gate () =
  traced (fun () ->
      let body () = () in
      Span.with_span "warm" body;
      let n = 1_000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        Span.with_span "k" body
      done;
      let words = (Gc.minor_words () -. w0) /. float_of_int n in
      if words > 37.0 then Alcotest.failf "%.1f words per traced span > 37" words)

(* --- atomic writes ---------------------------------------------------- *)

let test_write_json_atomic () =
  let path = tmpfile ".json" in
  Obs.write_json ~path (Json.Obj [ ("x", Json.Int 1) ]);
  Alcotest.(check bool) "no tmp left behind" false (Sys.file_exists (path ^ ".tmp"));
  (* overwrite must replace, not append or truncate-in-place *)
  Obs.write_json ~path (Json.Obj [ ("x", Json.Int 2) ]);
  match Json.parse (read_file path) with
  | Ok j -> Alcotest.(check (option int)) "second write wins" (Some 2)
              (Option.bind (Json.member "x" j) Json.to_int)
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "events disabled by default" `Quick test_events_disabled_by_default;
    Alcotest.test_case "event stream shape under parallel sweep" `Quick
      test_events_stream_shape;
    Alcotest.test_case "slot_done counts rise with seq" `Quick test_slot_done_in_seq_order;
    Alcotest.test_case "checkpoint replay emits an event" `Quick
      test_events_checkpoint_replayed;
    Alcotest.test_case "progress line rendering" `Quick test_events_render;
    Alcotest.test_case "resource summary fields" `Quick test_resource_summary_fields;
    Alcotest.test_case "metrics report is v4 with resource" `Quick
      test_metrics_report_v4_resource;
    Alcotest.test_case "spans carry resource attrs" `Quick
      test_span_carries_resource_attrs;
    Alcotest.test_case "alloc gate: one traced span" `Quick test_span_alloc_gate;
    Alcotest.test_case "report writes are atomic" `Quick test_write_json_atomic;
  ]
