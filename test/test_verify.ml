(* The verification subsystem: check atoms, fault boundaries, golden
   snapshot machinery, and a semantic smoke over the quick context.
   The full oracle/anchor battery runs in CI via `ppcache verify`;
   here we test the machinery itself on hermetic inputs. *)

module Check = Nmcache_verify.Check
module Golden = Nmcache_verify.Golden
module Anchors = Nmcache_verify.Anchors
module Oracles = Nmcache_verify.Oracles
module Fault = Nmcache_engine.Fault
module Json = Nmcache_engine.Json

(* --- Check ----------------------------------------------------------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0


let test_check_atoms () =
  Alcotest.(check bool) "pass passes" true (Check.passed (Check.pass ~name:"a" "d"));
  Alcotest.(check bool) "fail fails" false (Check.passed (Check.fail ~name:"a" "d"));
  Alcotest.(check bool) "check true" true (Check.passed (Check.check ~name:"a" true "d"));
  Alcotest.(check bool) "check false" false
    (Check.passed (Check.check ~name:"a" false "d"));
  Alcotest.(check bool) "all_passed" true
    (Check.all_passed [ Check.pass ~name:"a" ""; Check.pass ~name:"b" "" ]);
  Alcotest.(check bool) "all_passed spots failure" false
    (Check.all_passed [ Check.pass ~name:"a" ""; Check.fail ~name:"b" "" ])

let test_within () =
  Alcotest.(check bool) "equal passes" true
    (Check.passed (Check.within ~name:"w" ~value:1.0 ~reference:1.0 ~rel_tol:1e-12));
  Alcotest.(check bool) "inside tolerance" true
    (Check.passed (Check.within ~name:"w" ~value:1.009 ~reference:1.0 ~rel_tol:0.01));
  Alcotest.(check bool) "outside tolerance" false
    (Check.passed (Check.within ~name:"w" ~value:1.02 ~reference:1.0 ~rel_tol:0.01));
  Alcotest.(check bool) "nan fails" false
    (Check.passed (Check.within ~name:"w" ~value:Float.nan ~reference:1.0 ~rel_tol:0.5));
  Alcotest.(check bool) "inf fails" false
    (Check.passed
       (Check.within ~name:"w" ~value:Float.infinity ~reference:1.0 ~rel_tol:0.5));
  (* zero reference: scale floor keeps the test meaningful *)
  Alcotest.(check bool) "zero vs zero" true
    (Check.passed (Check.within ~name:"w" ~value:0.0 ~reference:0.0 ~rel_tol:1e-9))

let test_group_passthrough () =
  let checks = Check.group ~name:"g" (fun () -> [ Check.pass ~name:"inner" "fine" ]) in
  Alcotest.(check int) "one check" 1 (List.length checks);
  Alcotest.(check bool) "passed through" true (Check.all_passed checks)

let test_group_fault_boundary () =
  Fault.reset ();
  let checks = Check.group ~name:"boom" (fun () -> failwith "exploded") in
  (match checks with
  | [ c ] ->
    Alcotest.(check bool) "crashed, not passed" false (Check.passed c);
    Alcotest.(check string) "crash check name" "boom.crashed" c.Check.name;
    (match c.Check.status with
    | Check.Crashed f ->
      Alcotest.(check string) "fault stage" "verify.boom" f.Fault.stage
    | _ -> Alcotest.fail "expected Crashed status")
  | l -> Alcotest.failf "expected one crashed check, got %d" (List.length l));
  Alcotest.(check int) "fault recorded" 1 (List.length (Fault.recorded ()));
  Fault.reset ()

let test_render_shape () =
  let out =
    Check.render
      [ Check.pass ~name:"alpha" "ok detail"; Check.fail ~name:"beta.long-name" "bad" ]
  in
  Alcotest.(check bool) "has ok line" true
    (String.length out > 0 && String.sub out 0 5 = "ok   ");
  Alcotest.(check bool) "has FAIL marker" true
    (contains ~sub:"FAIL  beta.long-name" out);
  Alcotest.(check bool) "has summary" true
    (contains ~sub:"verify: 2 checks, 1 failed, 0 crashed" out)

let test_to_json () =
  Fault.reset ();
  let crashed = Check.group ~name:"g" (fun () -> failwith "x") in
  let json = Check.to_json (Check.pass ~name:"a" "d" :: crashed) in
  (match json with
  | Json.List [ Json.Obj first; Json.Obj second ] ->
    Alcotest.(check bool) "pass status" true
      (List.assoc "status" first = Json.String "pass");
    Alcotest.(check bool) "crashed status" true
      (List.assoc "status" second = Json.String "crashed");
    Alcotest.(check bool) "crash carries fault" true (List.mem_assoc "fault" second)
  | _ -> Alcotest.fail "unexpected JSON shape");
  (* the round trip must survive the engine's own parser *)
  (match Json.parse (Json.to_string json) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("rendered JSON must reparse: " ^ e));
  Fault.reset ()

(* --- Golden ---------------------------------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "nmcache-golden" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* a synthetic case so golden-machinery tests stay hermetic and fast *)
let fake_case payload =
  { Golden.id = "fake"; describe = "synthetic"; render = (fun _ -> payload) }

let ctx_unused = Core.Context.quick ()

let test_golden_missing_snapshot () =
  with_temp_dir @@ fun dir ->
  let c = Golden.check ~dir ctx_unused (fake_case "hello\n") in
  Alcotest.(check bool) "missing snapshot fails" false (Check.passed c);
  Alcotest.(check bool) "mentions --update-golden" true
    (contains ~sub:"--update-golden" c.Check.detail)

let test_golden_roundtrip () =
  with_temp_dir @@ fun dir ->
  let case = fake_case "line one\nline two\n" in
  let u = Golden.update ~dir ctx_unused case in
  Alcotest.(check bool) "update passes" true (Check.passed u);
  Alcotest.(check bool) "first update reports a change" true
    (contains ~sub:"updated" u.Check.detail);
  let u2 = Golden.update ~dir ctx_unused case in
  Alcotest.(check bool) "second update is a no-op" true
    (contains ~sub:"unchanged" u2.Check.detail);
  Alcotest.(check bool) "byte-equal snapshot passes" true
    (Check.passed (Golden.check ~dir ctx_unused case))

let test_golden_divergence_diagnostic () =
  with_temp_dir @@ fun dir ->
  ignore (Golden.update ~dir ctx_unused (fake_case "line one\nline two\n"));
  let c = Golden.check ~dir ctx_unused (fake_case "line one\nline 2wo\n") in
  Alcotest.(check bool) "drift fails" false (Check.passed c);
  Alcotest.(check bool) "points at line 2" true
    (contains ~sub:"line 2, column 6" c.Check.detail)

let test_golden_cases_registered () =
  let ids = List.map (fun c -> c.Golden.id) Golden.cases in
  Alcotest.(check (list string)) "canonical cases" [ "fig1"; "schemes"; "l2sweep" ] ids

(* --- semantic smoke on the quick context ----------------------------- *)

(* The cheap end of the oracle/anchor battery: fit-residual oracle and
   the Figure-1 sensitivity anchor (both reuse the memoised quick
   characterisation).  The expensive members (scheme brute force,
   Mattson sweeps, L2 sizing) run in CI via `ppcache verify`. *)
let test_quick_semantic_smoke () =
  let ctx = Core.Context.quick () in
  let fit_checks = Oracles.fit ctx in
  Alcotest.(check bool) "fit oracle has checks" true (List.length fit_checks > 0);
  List.iter
    (fun (c : Check.t) ->
      Alcotest.(check bool) ("fit oracle: " ^ c.Check.name ^ " — " ^ c.Check.detail)
        true (Check.passed c))
    fit_checks;
  let sens =
    Anchors.section ctx
      (List.find
         (fun (s : Core.Summary.section) -> s.Core.Summary.name = "sensitivity")
         Core.Summary.sections)
  in
  Alcotest.(check int) "two sensitivity anchors" 2 (List.length sens);
  List.iter
    (fun (c : Check.t) ->
      Alcotest.(check bool) ("anchor: " ^ c.Check.name ^ " — " ^ c.Check.detail) true
        (Check.passed c))
    sens

(* One list of paper claims: the anchors are the summary's verdicts,
   one [anchor.<id>] check per verdict, passing exactly when it holds. *)
let test_anchors_are_summary_verdicts () =
  let ctx = Core.Context.quick () in
  let verdicts = Core.Summary.verdicts ctx in
  let checks = Anchors.all ctx in
  Alcotest.(check (list string))
    "anchor names"
    (List.map (fun (v : Core.Summary.verdict) -> "anchor." ^ v.Core.Summary.id) verdicts)
    (List.map (fun (c : Check.t) -> c.Check.name) checks);
  List.iter2
    (fun (v : Core.Summary.verdict) (c : Check.t) ->
      Alcotest.(check bool)
        (c.Check.name ^ " passes iff the verdict holds")
        v.Core.Summary.holds (Check.passed c))
    verdicts checks

let suite =
  [
    Alcotest.test_case "check atoms" `Quick test_check_atoms;
    Alcotest.test_case "within tolerance" `Quick test_within;
    Alcotest.test_case "group passthrough" `Quick test_group_passthrough;
    Alcotest.test_case "group fault boundary" `Quick test_group_fault_boundary;
    Alcotest.test_case "render shape" `Quick test_render_shape;
    Alcotest.test_case "to_json" `Quick test_to_json;
    Alcotest.test_case "golden: missing snapshot" `Quick test_golden_missing_snapshot;
    Alcotest.test_case "golden: roundtrip" `Quick test_golden_roundtrip;
    Alcotest.test_case "golden: divergence diagnostic" `Quick
      test_golden_divergence_diagnostic;
    Alcotest.test_case "golden: canonical cases" `Quick test_golden_cases_registered;
    Alcotest.test_case "quick semantic smoke" `Slow test_quick_semantic_smoke;
    Alcotest.test_case "anchors are the summary verdicts" `Slow
      test_anchors_are_summary_verdicts;
  ]
