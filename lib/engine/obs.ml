(* v2: added the "faults" list (typed fault log) to the metrics report
   v3: added the "resilience" section (retry / checkpoint / deadline
   counters)
   v4: added the "resource" section (GC counters, heap sizes, wall) *)
let metrics_schema_version = 4
let verify_schema_version = 1

let stages_json () =
  Json.List
    (List.map
       (fun (s : Trace.stage) ->
         Json.Obj
           [
             ("name", Json.String s.Trace.name);
             ("calls", Json.Int s.Trace.calls);
             ("tasks", Json.Int s.Trace.tasks);
             ("busy_s", Json.Float s.Trace.busy_s);
             ("wall_s", Json.Float s.Trace.wall_s);
           ])
       (Trace.stages ()))

let memo_json () =
  Json.List
    (List.map
       (fun (c : Trace.cache_counter) ->
         let total = c.Trace.hits + c.Trace.misses in
         Json.Obj
           [
             ("name", Json.String c.Trace.cache);
             ("hits", Json.Int c.Trace.hits);
             ("misses", Json.Int c.Trace.misses);
             ( "hit_rate",
               if total = 0 then Json.Null
               else Json.Float (float_of_int c.Trace.hits /. float_of_int total) );
           ])
       (Trace.cache_counters ()))

let faults_json () =
  (* canonical (stage, kind, detail) order: the log's append order
     depends on domain scheduling, the report must not *)
  Json.List (List.map Fault.to_json (List.sort Fault.compare (Fault.recorded ())))

(* the resilience layer's counters in one place: how many retries ran
   and what they rescued, what the checkpoint journal served back, and
   whether any kernel deadline fired *)
let resilience_json () =
  let c = Metrics.counter_value in
  Json.Obj
    [
      ( "retries",
        Json.Obj
          [
            ("attempts", Json.Int (c "retry.attempts"));
            ("recovered", Json.Int (c "retry.recovered"));
            ("exhausted", Json.Int (c "retry.exhausted"));
          ] );
      ( "checkpoint",
        Json.Obj
          [
            ("replayed", Json.Int (c "checkpoint.replayed"));
            ("served", Json.Int (c "checkpoint.served"));
            ("appended", Json.Int (c "checkpoint.appended"));
            ("dropped_tails", Json.Int (c "checkpoint.dropped"));
          ] );
      ("deadline", Json.Obj [ ("fired", Json.Int (c "deadline.fired")) ]);
    ]

(* process start, for the resource section's wall_s *)
let start_wall = Unix.gettimeofday ()

(* the process's GC totals from one [Gc.quick_stat], which counts
   without walking the heap; its allocation counters move at minor
   collections, so they run up to one minor heap behind *)
let resource_json () =
  let s = Gc.quick_stat () in
  Json.Obj
    [
      ("wall_s", Json.Float (Unix.gettimeofday () -. start_wall));
      ("minor_words", Json.Float s.Gc.minor_words);
      ("promoted_words", Json.Float s.Gc.promoted_words);
      ("major_words", Json.Float s.Gc.major_words);
      (* total fresh allocation: minor + direct-to-major, without
         double-counting promotions *)
      ( "allocated_words",
        Json.Float (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words) );
      ("minor_collections", Json.Int s.Gc.minor_collections);
      ("major_collections", Json.Int s.Gc.major_collections);
      ("forced_major_collections", Json.Int s.Gc.forced_major_collections);
      ("compactions", Json.Int s.Gc.compactions);
      ("heap_words", Json.Int s.Gc.heap_words);
      ("peak_heap_words", Json.Int s.Gc.top_heap_words);
    ]

let verify_report ~checks =
  Json.Obj
    [
      ("schema_version", Json.Int verify_schema_version);
      ("checks", checks);
      (* crashed checks record their fault before settling, so the
         embedded log names every crash the checks list reports *)
      ("faults", faults_json ());
    ]

let metrics_report () =
  Json.Obj
    [
      ("schema_version", Json.Int metrics_schema_version);
      ("metrics", Metrics.to_json ());
      ("stages", stages_json ());
      ("memo", memo_json ());
      ("faults", faults_json ());
      ("resilience", resilience_json ());
      ("resource", resource_json ());
    ]

(* All report writes are atomic: the full document goes to
   [path ^ ".tmp"] in the same directory, then rename replaces the
   target in one step.  A run killed or deadline-expired mid-write can
   leave a stale .tmp behind but never a truncated report. *)
let write_text ~path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     output_string oc text;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let write_json ~path json = write_text ~path (Json.to_string_pretty json)
let write_metrics ~path = write_json ~path (metrics_report ())
let write_trace ~path = write_json ~path (Span.to_chrome_json ())
let write_openmetrics ~path = write_text ~path (Metrics.to_openmetrics ())
