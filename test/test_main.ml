(* Entry point aggregating every suite. *)

(* Child mode for the kill-during-write chaos test: re-executed with
   this env var set, loop writing a report until SIGKILLed.  Must run
   before Alcotest so no domain is ever spawned in the child. *)
let () =
  match Sys.getenv_opt Test_resilience.kill_writer_env with
  | Some target -> Test_resilience.writer_child_main target; exit 0
  | None -> ()

(* Child mode for the kill-mid-serve chaos test: run the serve loop
   over a query file until SIGKILLed. *)
let () =
  match Sys.getenv_opt Test_serve.serve_child_env with
  | Some spec -> Test_serve.serve_child_main spec; exit 0
  | None -> ()

(* Child mode for the kill-mid-chunk streaming chaos test: run a
   checkpointed streamed simulation until SIGKILLed (or to
   completion, on resume). *)
let () =
  match Sys.getenv_opt Test_stream.stream_child_env with
  | Some spec -> Test_stream.stream_child_main spec; exit 0
  | None -> ()

(* Child mode for the lockfile TOCTOU race: two children barrier in
   the stale-break window, then race to break one stale lock. *)
let () =
  match Sys.getenv_opt Test_robustness.lock_child_env with
  | Some spec -> Test_robustness.lock_child_main spec; exit 0
  | None -> ()

let () =
  Alcotest.run "nmcache"
    [
      ("physics", Test_physics.suite);
      ("numerics", Test_numerics.suite);
      ("device", Test_device.suite);
      ("circuit", Test_circuit.suite);
      ("transient", Test_transient.suite);
      ("geometry", Test_geometry.suite);
      ("fit", Test_fit.suite);
      ("cachesim", Test_cachesim.suite);
      ("mattson", Test_mattson.suite);
      ("profile", Test_profile.suite);
      ("workload", Test_workload.suite);
      ("energy", Test_energy.suite);
      ("opt", Test_opt.suite);
      ("engine", Test_engine.suite);
      ("fault", Test_fault.suite);
      ("resilience", Test_resilience.suite);
      ("serve", Test_serve.suite);
      ("robustness", Test_robustness.suite);
      ("stream", Test_stream.suite);
      ("obs", Test_obs.suite);
      ("telemetry", Test_telemetry.suite);
      ("report", Test_report.suite);
      ("extensions", Test_extensions.suite);
      ("extras", Test_extras.suite);
      ("verify", Test_verify.suite);
      ("integration", Test_integration.suite);
      ("cli", Test_cli.suite);
    ]
