(* Telemetry v2 suite: live progress events (NDJSON stream shape,
   sequence numbers, sweep/checkpoint/experiment hooks), resource
   accounting (sample deltas, span attributes, process summary in the
   v4 metrics report) and atomic report writes.

   The event sink is process-wide, so every test that arms it closes
   it in a [Fun.protect] finally. *)

module Json = Nmcache_engine.Json
module Metrics = Nmcache_engine.Metrics
module Span = Nmcache_engine.Span
module Obs = Nmcache_engine.Obs
module Trace = Nmcache_engine.Trace
module Events = Nmcache_engine.Events
module Resource = Nmcache_engine.Resource
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

let test_resource_sampling () =
  let before = Resource.sample () in
  (* the quick_stat counters only advance at minor collections, so
     allocate well past one minor-heap cycle (~256k words default) *)
  let acc = ref [] in
  for i = 1 to 300_000 do
    acc := (i, float_of_int i) :: !acc
  done;
  ignore (List.length !acc);
  let after = Resource.sample () in
  let d = Resource.delta ~before ~after in
  Alcotest.(check bool) "wall advances" true (d.Resource.wall_s >= 0.0);
  Alcotest.(check bool) "minor words grew" true (d.Resource.d_minor_words > 0.0);
  let attrs = Resource.span_attrs ~before ~after in
  List.iter
    (fun k -> Alcotest.(check bool) k true (List.mem_assoc k attrs))
    [ "minor_words"; "major_words"; "major_collections" ]

let test_resource_summary_fields () =
  let j = Resource.summary_json () in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true (Json.member k j <> None))
    [
      "wall_s"; "minor_words"; "promoted_words"; "major_words"; "allocated_words";
      "minor_collections"; "major_collections"; "forced_major_collections";
      "compactions"; "heap_words"; "peak_heap_words";
    ];
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

let test_span_carries_resource_attrs () =
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.reset ())
    (fun () ->
      Span.with_span "alloc" (fun () ->
          (* enough cons cells to force a minor collection, so the
             span's allocation delta is visibly non-zero *)
          let acc = ref [] in
          for i = 1 to 300_000 do
            acc := i :: !acc
          done;
          ignore (List.length !acc));
      match Span.spans () with
      | [ s ] ->
        List.iter
          (fun k ->
            Alcotest.(check bool) (k ^ " attr") true (List.mem_assoc k s.Span.attrs))
          [ "minor_words"; "major_words"; "major_collections" ];
        (match List.assoc "minor_words" s.Span.attrs with
        | Json.Float words -> Alcotest.(check bool) "allocation observed" true (words > 0.0)
        | _ -> Alcotest.fail "minor_words not a float")
      | l -> Alcotest.failf "expected one span, got %d" (List.length l))

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
    Alcotest.test_case "checkpoint replay emits an event" `Quick
      test_events_checkpoint_replayed;
    Alcotest.test_case "progress line rendering" `Quick test_events_render;
    Alcotest.test_case "resource sampling and deltas" `Quick test_resource_sampling;
    Alcotest.test_case "resource summary fields" `Quick test_resource_summary_fields;
    Alcotest.test_case "metrics report is v4 with resource" `Quick
      test_metrics_report_v4_resource;
    Alcotest.test_case "spans carry resource attrs" `Quick
      test_span_carries_resource_attrs;
    Alcotest.test_case "report writes are atomic" `Quick test_write_json_atomic;
  ]
