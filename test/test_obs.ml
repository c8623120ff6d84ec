(* Tests for the observability layer: the mini JSON codec, metrics
   registry (histogram quantiles, cross-domain counter safety), span
   tracing (chrome trace_event export round-trip, nesting, agreement
   with the flat Trace stage table) and the machine-readable report
   assembly. *)

module Json = Nmcache_engine.Json
module Metrics = Nmcache_engine.Metrics
module Span = Nmcache_engine.Span
module Obs = Nmcache_engine.Obs
module Trace = Nmcache_engine.Trace
module Pool = Nmcache_engine.Pool
module Task = Nmcache_engine.Task
module Sweep = Nmcache_engine.Sweep

let with_clean_slate f =
  Metrics.reset ();
  Trace.reset ();
  Span.set_enabled false;
  Span.reset ();
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.reset ();
      Metrics.reset ();
      Trace.reset ())
    f

(* --- json ----------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("flag", Json.Bool true);
        ("n", Json.Int (-42));
        ("pi", Json.Float 3.14159265358979312);
        ("tiny", Json.Float 1.5e-300);
        ("s", Json.String "line\nquote\"back\\slash\ttab");
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
        ("nested", Json.List [ Json.Int 1; Json.List [ Json.String "x" ]; Json.Obj [ ("k", Json.Int 2) ] ]);
      ]
  in
  List.iter
    (fun rendered ->
      match Json.parse rendered with
      | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
      | Error e -> Alcotest.fail e)
    [ Json.to_string v; Json.to_string_pretty v ]

let test_json_float_fidelity () =
  (* %.17g must reproduce doubles bit-exactly through parse *)
  List.iter
    (fun f ->
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') ->
        Alcotest.(check bool) (Printf.sprintf "%h survives" f) true (Int64.bits_of_float f = Int64.bits_of_float f')
      | Ok v -> Alcotest.failf "parsed to non-float %s" (Json.to_string v)
      | Error e -> Alcotest.fail e)
    [ 0.1; 1.0 /. 3.0; 6.241e18; -0.0; 1e-300 ];
  (* non-finite floats degrade to null rather than invalid JSON *)
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null" (Json.to_string (Json.Float Float.infinity))

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{\"a\" 1}" ]

let test_json_deep_nesting () =
  (* the recursive-descent parser must take 512-deep structures in
     stride, and a truncated deep structure must fail cleanly *)
  let depth = 512 in
  let s = String.make depth '[' ^ "7" ^ String.make depth ']' in
  let rec unwrap v = function
    | 0 -> Alcotest.(check bool) "innermost value" true (v = Json.Int 7)
    | k -> (
      match v with
      | Json.List [ inner ] -> unwrap inner (k - 1)
      | _ -> Alcotest.fail "expected singleton list")
  in
  (match Json.parse s with
  | Ok v -> unwrap v depth
  | Error e -> Alcotest.fail e);
  (match Json.parse (String.make depth '[') with
  | Ok _ -> Alcotest.fail "accepted unclosed deep nesting"
  | Error _ -> ());
  (* deep object nesting too *)
  let obj = String.concat "" (List.init 64 (fun _ -> "{\"k\":")) ^ "true" ^ String.make 64 '}' in
  match Json.parse obj with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_json_escapes () =
  let roundtrip input expected =
    match Json.parse input with
    | Ok (Json.String s) -> Alcotest.(check string) input expected s
    | Ok v -> Alcotest.failf "parsed %s to non-string %s" input (Json.to_string v)
    | Error e -> Alcotest.failf "%s rejected: %s" input e
  in
  roundtrip {|"\n\t\r\b\f"|} "\n\t\r\b\012";
  roundtrip {|"\\\"\/"|} "\\\"/";
  (* \uXXXX decodes to UTF-8: e9 -> 2 bytes, 20ac (euro) -> 3 bytes *)
  roundtrip "\"A\\u00e9\\u20ac\"" "A\xc3\xa9\xe2\x82\xac";
  (* the encoder's control-char escaping must parse back to the same string *)
  let original = "ctl\x01\x1f end" in
  (match Json.parse (Json.to_string (Json.String original)) with
  | Ok (Json.String s) -> Alcotest.(check string) "control chars round-trip" original s
  | Ok _ | Error _ -> Alcotest.fail "control-char round-trip failed");
  (* malformed escapes are rejected *)
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted bad escape %S" s
      | Error _ -> ())
    [ {|"\x41"|}; {|"\u12"|}; {|"\u12zz"|}; {|"\|} ]

let test_json_nonfinite_rejected () =
  (* JSON has no NaN/Infinity literals; the parser must not smuggle
     them in via the number or literal paths *)
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok v -> Alcotest.failf "accepted %S as %s" s (Json.to_string v)
      | Error _ -> ())
    [ "NaN"; "nan"; "Infinity"; "-Infinity"; "inf"; "-inf"; "[1, NaN]"; "{\"x\": Infinity}" ]

let test_json_accessors () =
  let v = Json.parse_exn {|{"a": [1, 2.5], "b": "x"}|} in
  Alcotest.(check (option int)) "int member" (Some 1)
    (Option.bind (Json.member "a" v) (fun l ->
         Option.bind (Json.to_list l) (fun l -> Json.to_int (List.hd l))));
  Alcotest.(check (option string)) "str member" (Some "x")
    (Option.bind (Json.member "b" v) Json.to_str);
  Alcotest.(check (option string)) "missing member" None
    (Option.bind (Json.member "zzz" v) Json.to_str);
  Alcotest.(check (option int)) "the first of two same-named fields wins" (Some 1)
    (Option.bind (Json.member "k" (Json.parse_exn {|{"j": 0, "k": 1, "k": 2}|})) Json.to_int);
  Alcotest.(check (option int)) "no member of a non-object" None
    (Option.bind (Json.member "k" (Json.Int 1)) Json.to_int)

(* --- metrics -------------------------------------------------------------- *)

let test_counters_and_gauges () =
  with_clean_slate (fun () ->
      Metrics.incr "c";
      Metrics.incr ~by:41 "c";
      Alcotest.(check int) "counter sums" 42 (Metrics.counter_value "c");
      Alcotest.(check int) "unknown counter is 0" 0 (Metrics.counter_value "nope");
      Metrics.set_gauge "g" 1.5;
      Metrics.set_gauge "g" 2.5;
      Alcotest.(check (option (float 1e-9))) "gauge keeps last" (Some 2.5) (Metrics.gauge_value "g"))

let test_histogram_quantiles () =
  with_clean_slate (fun () ->
      (* uniform 1..1000: p50=500, p90=900, p99=990; log buckets are 16
         per decade, so estimates carry at most ~8% relative error *)
      for i = 1 to 1000 do
        Metrics.observe "h" (float_of_int i)
      done;
      match Metrics.histogram_summary "h" with
      | None -> Alcotest.fail "histogram missing"
      | Some s ->
        Alcotest.(check int) "count" 1000 s.Metrics.count;
        Alcotest.(check (float 1e-6)) "sum" 500500.0 s.Metrics.sum;
        Alcotest.(check (float 1e-6)) "min" 1.0 s.Metrics.min;
        Alcotest.(check (float 1e-6)) "max" 1000.0 s.Metrics.max;
        let check_quantile name est truth =
          let rel = Float.abs (est -. truth) /. truth in
          if rel > 0.10 then
            Alcotest.failf "%s: estimate %.1f vs true %.1f (rel %.3f)" name est truth rel
        in
        check_quantile "p50" s.Metrics.p50 500.0;
        check_quantile "p90" s.Metrics.p90 900.0;
        check_quantile "p99" s.Metrics.p99 990.0)

let test_histogram_degenerate () =
  with_clean_slate (fun () ->
      Metrics.observe "one" 7.0;
      (match Metrics.histogram_summary "one" with
      | Some s ->
        Alcotest.(check (float 1e-6)) "single-sample p50 is clamped" 7.0 s.Metrics.p50;
        Alcotest.(check (float 1e-6)) "single-sample p99 is clamped" 7.0 s.Metrics.p99
      | None -> Alcotest.fail "missing");
      Metrics.observe "zeros" 0.0;
      Metrics.observe "zeros" (-3.0);
      match Metrics.histogram_summary "zeros" with
      | Some s ->
        Alcotest.(check int) "non-positive samples counted" 2 s.Metrics.count;
        Alcotest.(check (float 1e-6)) "p50 of underflow bucket" 0.0 s.Metrics.p50
      | None -> Alcotest.fail "missing")

let test_histogram_edge_cases () =
  with_clean_slate (fun () ->
      (* never-observed name: no summary at all *)
      Alcotest.(check bool) "unknown histogram is None" true
        (Metrics.histogram_summary "never" = None);
      (* single sample: every quantile clamps to the one value *)
      Metrics.observe "single" 42.0;
      (match Metrics.histogram_summary "single" with
      | Some s ->
        Alcotest.(check int) "count 1" 1 s.Metrics.count;
        Alcotest.(check (float 1e-6)) "p50" 42.0 s.Metrics.p50;
        Alcotest.(check (float 1e-6)) "p90" 42.0 s.Metrics.p90;
        Alcotest.(check (float 1e-6)) "p99" 42.0 s.Metrics.p99
      | None -> Alcotest.fail "missing");
      (* p99 with fewer than 100 samples: the rank rounds to the last
         sample, so the estimate must clamp into [min, max] — never
         overshoot the largest observation *)
      for i = 1 to 10 do
        Metrics.observe "ten" (float_of_int i)
      done;
      (match Metrics.histogram_summary "ten" with
      | Some s ->
        Alcotest.(check bool) "p99 <= max" true (s.Metrics.p99 <= 10.0);
        Alcotest.(check bool) "p99 >= p50" true (s.Metrics.p99 >= s.Metrics.p50);
        Alcotest.(check bool) "p50 plausible" true
          (s.Metrics.p50 >= 1.0 && s.Metrics.p50 <= 10.0)
      | None -> Alcotest.fail "missing");
      (* observe_n must be indistinguishable from n repeated observes *)
      Metrics.observe_n "bulk" 3.0 ~count:5;
      Metrics.observe_n "bulk" 0.0 ~count:2;
      Metrics.observe_n "bulk" 9.0 ~count:0;
      for _ = 1 to 5 do
        Metrics.observe "loop" 3.0
      done;
      Metrics.observe "loop" 0.0;
      Metrics.observe "loop" 0.0;
      match (Metrics.histogram_summary "bulk", Metrics.histogram_summary "loop") with
      | Some b, Some l ->
        Alcotest.(check int) "bulk count" 7 b.Metrics.count;
        Alcotest.(check (float 1e-9)) "bulk sum" l.Metrics.sum b.Metrics.sum;
        Alcotest.(check (float 1e-9)) "bulk p50" l.Metrics.p50 b.Metrics.p50;
        Alcotest.(check (float 1e-9)) "bulk p99" l.Metrics.p99 b.Metrics.p99
      | _ -> Alcotest.fail "missing")

let test_histogram_cross_domain_merge () =
  with_clean_slate (fun () ->
      (* 4 domains each observing a distinct value band into ONE
         histogram: the merged summary must count every sample and its
         quantiles must straddle the bands *)
      ignore
        (Pool.map_array (Pool.create ~jobs:4)
           (fun band ->
             for i = 1 to 250 do
               Metrics.observe "merged"
                 ((float_of_int band *. 1000.0) +. float_of_int i)
             done)
           (Array.init 4 Fun.id));
      match Metrics.histogram_summary "merged" with
      | None -> Alcotest.fail "histogram missing"
      | Some s ->
        Alcotest.(check int) "merged count exact" 1000 s.Metrics.count;
        Alcotest.(check (float 1e-6)) "min from band 0" 1.0 s.Metrics.min;
        Alcotest.(check (float 1e-6)) "max from band 3" 3250.0 s.Metrics.max;
        Alcotest.(check bool) "p50 in the middle bands" true
          (s.Metrics.p50 > 250.0 && s.Metrics.p50 < 3000.0);
        Alcotest.(check bool) "p99 near the top band" true (s.Metrics.p99 > 2000.0))

(* --- openmetrics ----------------------------------------------------------- *)

(* reverse of Metrics.escape_label_value, for round-trip checks *)
let unescape_label s =
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | '\\' -> Buffer.add_char b '\\'
       | '"' -> Buffer.add_char b '"'
       | 'n' -> Buffer.add_char b '\n'
       | c ->
         Buffer.add_char b '\\';
         Buffer.add_char b c);
       i := !i + 2
     end
     else begin
       Buffer.add_char b s.[!i];
       incr i
     end)
  done;
  Buffer.contents b

let test_openmetrics_escaping_roundtrip () =
  let nasty =
    [ "plain"; {|back\slash|}; {|quo"te|}; "new\nline"; "all\\three\"and\nmore" ]
  in
  List.iter
    (fun s ->
      Alcotest.(check string)
        (Printf.sprintf "label %S round-trips" s)
        s
        (unescape_label (Metrics.escape_label_value s)))
    nasty;
  (* help escaping touches backslash and newline but leaves quotes alone *)
  Alcotest.(check string) "help escapes newline" {|a\nb|} (Metrics.escape_help "a\nb");
  Alcotest.(check string) "help escapes backslash" {|a\\b|} (Metrics.escape_help {|a\b|});
  Alcotest.(check string) "help keeps quotes" {|a"b|} (Metrics.escape_help {|a"b|})

let test_openmetrics_exposition () =
  with_clean_slate (fun () ->
      Metrics.incr ~by:7 "cachesim.accesses";
      Metrics.set_gauge "pool.size" 4.0;
      Metrics.observe "lm.iters" 10.0;
      Metrics.observe "lm.iters" 20.0;
      (* a registry name that needs escaping when it becomes a label *)
      Metrics.incr {|weird\name"with|};
      let text = Metrics.to_openmetrics () in
      let has needle =
        let ln = String.length needle and lt = String.length text in
        let rec go i = i + ln <= lt && (String.sub text i ln = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "terminated by EOF" true
        (String.length text >= 6 && String.sub text (String.length text - 6) 6 = "# EOF\n");
      Alcotest.(check bool) "counter sample" true
        (has "ppcache_counter_total{name=\"cachesim.accesses\"} 7\n");
      Alcotest.(check bool) "gauge sample" true
        (has "ppcache_gauge{name=\"pool.size\"} 4\n");
      Alcotest.(check bool) "histogram quantile series" true
        (has "ppcache_histogram{name=\"lm.iters\",quantile=\"0.5\"}");
      Alcotest.(check bool) "histogram count" true
        (has "ppcache_histogram_count{name=\"lm.iters\"} 2\n");
      Alcotest.(check bool) "histogram sum" true
        (has "ppcache_histogram_sum{name=\"lm.iters\"} 30\n");
      Alcotest.(check bool) "escaped label rendered" true
        (has ("{name=\"" ^ Metrics.escape_label_value {|weird\name"with|} ^ "\"}"));
      Alcotest.(check bool) "HELP precedes TYPE" true
        (has "# HELP ppcache_counter " && has "# TYPE ppcache_counter counter\n");
      (* every non-comment line is  <sample> <value>  with no raw
         newline inside a label: line count matches sample count *)
      let lines = String.split_on_char '\n' text in
      let samples =
        List.filter
          (fun l -> l <> "" && l.[0] <> '#')
          lines
      in
      (* 2 counters + 1 gauge + (3 quantiles + sum + count) = 8 *)
      Alcotest.(check int) "sample-line count" 8 (List.length samples))

let test_counters_parallel () =
  with_clean_slate (fun () ->
      (* 64 kernels on 4 domains all bumping the same counter: the total
         must be exact, not racy *)
      ignore
        (Pool.map_array (Pool.create ~jobs:4)
           (fun _ ->
             for _ = 1 to 1000 do
               Metrics.incr "par"
             done;
             Metrics.observe "par.h" 1.0)
           (Array.init 64 Fun.id));
      Alcotest.(check int) "counter exact across domains" 64_000 (Metrics.counter_value "par");
      match Metrics.histogram_summary "par.h" with
      | Some s -> Alcotest.(check int) "histogram count exact" 64 s.Metrics.count
      | None -> Alcotest.fail "histogram missing")

let test_metrics_json_parses () =
  with_clean_slate (fun () ->
      Metrics.incr "a.count";
      Metrics.set_gauge "a.gauge" 0.5;
      Metrics.observe "a.h" 10.0;
      Trace.record ~stage:"st" ~tasks:3 ~busy_s:0.1 ~wall_s:0.1;
      Trace.cache_hit "memo1";
      Trace.cache_miss "memo1";
      let report = Obs.metrics_report () in
      let parsed = Json.parse_exn (Json.to_string_pretty report) in
      Alcotest.(check (option int)) "schema_version" (Some Obs.metrics_schema_version)
        (Option.bind (Json.member "schema_version" parsed) Json.to_int);
      let counters = Option.get (Json.member "metrics" parsed) |> Json.member "counters" |> Option.get in
      Alcotest.(check (option int)) "counter in report" (Some 1)
        (Option.bind (Json.member "a.count" counters) Json.to_int);
      let memo = Option.get (Json.member "memo" parsed) |> Json.to_list |> Option.get in
      Alcotest.(check int) "one memo cache" 1 (List.length memo);
      let hit_rate = Option.get (Json.member "hit_rate" (List.hd memo)) in
      Alcotest.(check (option (float 1e-9))) "hit rate" (Some 0.5) (Json.to_float hit_rate);
      let stages = Option.get (Json.member "stages" parsed) |> Json.to_list |> Option.get in
      Alcotest.(check (option int)) "stage tasks" (Some 3)
        (Option.bind (Json.member "tasks" (List.hd stages)) Json.to_int))

(* --- spans ---------------------------------------------------------------- *)

let test_span_disabled_is_free () =
  with_clean_slate (fun () ->
      let r = Span.with_span "off" (fun () -> 41 + 1) in
      Alcotest.(check int) "value passes through" 42 r;
      Alcotest.(check int) "nothing recorded" 0 (List.length (Span.spans ())))

let test_span_exception_still_records () =
  with_clean_slate (fun () ->
      Span.set_enabled true;
      (try Span.with_span "boom" (fun () -> failwith "kernel") with Failure _ -> ());
      let spans = Span.spans () in
      Alcotest.(check int) "span recorded despite raise" 1 (List.length spans);
      Alcotest.(check (option int)) "stack unwound" None (Span.current_id ()))

let find_spans name spans = List.filter (fun (s : Span.span) -> s.Span.name = name) spans

let test_span_chrome_roundtrip () =
  with_clean_slate (fun () ->
      Span.set_enabled true;
      Span.with_span ~attrs:[ ("layer", Json.Int 0) ] "root" (fun () ->
          Span.with_span "middle" (fun () ->
              Span.with_span "leaf" (fun () -> ());
              Span.with_span "leaf" (fun () -> ())));
      let parsed = Json.parse_exn (Json.to_string (Span.to_chrome_json ())) in
      let events =
        Option.get (Json.member "traceEvents" parsed) |> Json.to_list |> Option.get
      in
      let complete =
        List.filter
          (fun e -> Json.member "ph" e |> Option.get |> Json.to_str = Some "X")
          events
      in
      Alcotest.(check int) "four complete events" 4 (List.length complete);
      (* every event carries the trace_event envelope *)
      List.iter
        (fun e ->
          Alcotest.(check (option int)) "pid" (Some 1)
            (Option.bind (Json.member "pid" e) Json.to_int);
          Alcotest.(check bool) "tid present" true (Json.member "tid" e <> None);
          Alcotest.(check bool) "ts numeric" true
            (Option.bind (Json.member "ts" e) Json.to_float <> None);
          Alcotest.(check bool) "dur numeric" true
            (Option.bind (Json.member "dur" e) Json.to_float <> None))
        complete;
      (* rebuild the tree from args.span_id/parent_id and check both the
         edges and the time containment *)
      let field e name = Option.get (Json.member name e) in
      let arg e name = Json.member name (field e "args") in
      let by_id =
        List.map (fun e -> (Option.get (Option.bind (arg e "span_id") Json.to_int), e)) complete
      in
      let name_of e = Option.get (Json.to_str (field e "name")) in
      let root = List.hd (List.filter (fun (_, e) -> name_of e = "root") by_id) in
      let middle = List.hd (List.filter (fun (_, e) -> name_of e = "middle") by_id) in
      let leaves = List.filter (fun (_, e) -> name_of e = "leaf") by_id in
      Alcotest.(check int) "two leaves" 2 (List.length leaves);
      Alcotest.(check (option int)) "root has no parent" None
        (Option.bind (arg (snd root) "parent_id") Json.to_int);
      Alcotest.(check (option int)) "middle's parent is root" (Some (fst root))
        (Option.bind (arg (snd middle) "parent_id") Json.to_int);
      List.iter
        (fun (_, leaf) ->
          Alcotest.(check (option int)) "leaf's parent is middle" (Some (fst middle))
            (Option.bind (arg leaf "parent_id") Json.to_int))
        leaves;
      Alcotest.(check (option int)) "attrs exported" (Some 0)
        (Option.bind (arg (snd root) "layer") Json.to_int);
      let ts e = Option.get (Option.bind (Json.member "ts" e) Json.to_float) in
      let finish e = ts e +. Option.get (Option.bind (Json.member "dur" e) Json.to_float) in
      let slack = 1.0 (* µs: gettimeofday resolution *) in
      List.iter
        (fun (_, child) ->
          let parent = snd (if name_of child = "middle" then root else middle) in
          Alcotest.(check bool) "child starts after parent" true (ts child >= ts parent -. slack);
          Alcotest.(check bool) "child ends before parent" true
            (finish child <= finish parent +. slack))
        (middle :: leaves))

let test_span_crosses_domains () =
  with_clean_slate (fun () ->
      Span.set_enabled true;
      (* kernels sleep briefly so the spawned domains claim work before
         the calling domain drains the queue *)
      let task =
        Task.make ~name:"obs.kernel" (fun i ->
            Unix.sleepf 0.005;
            i * 3)
      in
      let out =
        Span.with_span "fanout-root" (fun () ->
            Sweep.map_array ~pool:(Pool.create ~jobs:4) task (Array.init 16 Fun.id))
      in
      Alcotest.(check int) "sweep result intact" 45 out.(15);
      let spans = Span.spans () in
      let sweep_span =
        match find_spans "sweep:obs.kernel" spans with
        | [ s ] -> s
        | l -> Alcotest.failf "expected one sweep span, got %d" (List.length l)
      in
      let root = List.hd (find_spans "fanout-root" spans) in
      Alcotest.(check (option int)) "sweep hangs off enclosing span"
        (Some root.Span.id) sweep_span.Span.parent;
      let kernels = find_spans "obs.kernel" spans in
      Alcotest.(check int) "one span per kernel" 16 (List.length kernels);
      List.iter
        (fun (k : Span.span) ->
          Alcotest.(check (option int)) "kernel parented to sweep across domains"
            (Some sweep_span.Span.id) k.Span.parent)
        kernels;
      let tids = List.sort_uniq compare (List.map (fun (k : Span.span) -> k.Span.tid) kernels) in
      Alcotest.(check bool) "kernels ran on more than one domain" true (List.length tids > 1))

let test_span_trace_agreement () =
  with_clean_slate (fun () ->
      Span.set_enabled true;
      let task = Task.make ~name:"obs.agree" (fun i -> i + 1) in
      ignore (Sweep.map_array ~pool:(Pool.create ~jobs:2) task (Array.init 10 Fun.id));
      ignore (Sweep.map_array ~pool:Pool.sequential task (Array.init 5 Fun.id));
      let stage =
        List.find (fun (s : Trace.stage) -> s.Trace.name = "obs.agree") (Trace.stages ())
      in
      let spans = Span.spans () in
      Alcotest.(check int) "trace tasks == kernel spans" stage.Trace.tasks
        (List.length (find_spans "obs.agree" spans));
      Alcotest.(check int) "trace calls == sweep spans" stage.Trace.calls
        (List.length (find_spans "sweep:obs.agree" spans));
      let spanned_tasks =
        List.fold_left
          (fun acc (s : Span.span) ->
            match List.assoc_opt "tasks" s.Span.attrs with
            | Some (Json.Int n) -> acc + n
            | _ -> acc)
          0
          (find_spans "sweep:obs.agree" spans)
      in
      Alcotest.(check int) "trace tasks == sweep span attrs" stage.Trace.tasks spanned_tasks)

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json float fidelity" `Quick test_json_float_fidelity;
    Alcotest.test_case "json rejects malformed input" `Quick test_json_parse_errors;
    Alcotest.test_case "json deep nesting" `Quick test_json_deep_nesting;
    Alcotest.test_case "json string escapes" `Quick test_json_escapes;
    Alcotest.test_case "json rejects non-finite literals" `Quick test_json_nonfinite_rejected;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "histogram quantiles (uniform 1..1000)" `Quick test_histogram_quantiles;
    Alcotest.test_case "histogram degenerate shapes" `Quick test_histogram_degenerate;
    Alcotest.test_case "histogram edge cases (empty, single, p99<100, observe_n)" `Quick
      test_histogram_edge_cases;
    Alcotest.test_case "histogram merges across domains" `Quick
      test_histogram_cross_domain_merge;
    Alcotest.test_case "openmetrics escaping round-trips" `Quick
      test_openmetrics_escaping_roundtrip;
    Alcotest.test_case "openmetrics exposition format" `Quick test_openmetrics_exposition;
    Alcotest.test_case "counters exact across domains" `Quick test_counters_parallel;
    Alcotest.test_case "metrics report parses back" `Quick test_metrics_json_parses;
    Alcotest.test_case "disabled spans record nothing" `Quick test_span_disabled_is_free;
    Alcotest.test_case "span survives exceptions" `Quick test_span_exception_still_records;
    Alcotest.test_case "chrome trace round-trips with nesting" `Quick test_span_chrome_roundtrip;
    Alcotest.test_case "spans cross the domain boundary" `Quick test_span_crosses_domains;
    Alcotest.test_case "span layer agrees with Trace stages" `Quick test_span_trace_agreement;
  ]
