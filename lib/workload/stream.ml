(* Workload-backed streams: the generator registry's entry point into
   the chunked streaming engine.  A wrapped workload is restartable
   (every fold re-seeds a fresh generator, whose [Gen.fill] draws each
   range the fold asks for), so the stream both replays
   deterministically and carries a checkpoint key. *)

module Stream_trace = Nmcache_cachesim.Stream_trace

let of_workload ?(chunk_size = Stream_trace.default_chunk_size)
    ?(seed = Registry.default_seed) ~workload ~n () =
  (* unknown workloads fail here, not at the first chunk *)
  if Registry.find workload = None then
    invalid_arg
      (Printf.sprintf "Stream.of_workload: unknown workload %s" workload);
  if n < 0 then invalid_arg "Stream.of_workload: n < 0";
  (* the checkpoint identity names every input the entries — and the
     chunk boundaries — depend on, the trace generation included *)
  let key =
    Printf.sprintf "stream:%s:%Ld:%d:%d:%s" workload seed n chunk_size
      Registry.generator_tag
  in
  Stream_trace.of_producer ~chunk_size ~key ~name:workload ~n (fun () ->
      Gen.fill (Registry.build ~seed workload))
