(* --- the checkpoint journal ----------------------------------------- *)

(* completed slots live in the ["slot"] namespace of one process-wide
   store, armed by [ppcache ... --checkpoint DIR] *)
let slot_ns = "slot"
let journal : Store.t option Atomic.t = Atomic.make None

let set_journal j =
  Option.iter
    (fun s ->
      let replayed = Store.replayed s in
      if replayed > 0 then begin
        Metrics.incr ~by:replayed "checkpoint.replayed";
        if Events.enabled () then
          Events.emit (Events.Checkpoint_replayed { dir = Store.dir s; replayed })
      end;
      if Store.dropped_tail s then Metrics.incr "checkpoint.dropped")
    j;
  Atomic.set journal j

let journal_armed () = Option.is_some (Atomic.get journal)

let journaled ~key f =
  match Atomic.get journal with
  | None -> f ()
  | Some s -> (
    match Store.lookup s ~ns:slot_ns ~key with
    | Some v ->
      Metrics.incr "checkpoint.served";
      v
    | None ->
      let v = f () in
      if Store.add_new s ~ns:slot_ns ~key v then Metrics.incr "checkpoint.appended";
      v)

(* one slot's evaluation, with the resilience plumbing applied in a
   fixed order: serve the slot from the armed journal if it is keyed
   and already there; otherwise arm the default deadline budget at the
   kernel root, compute, and journal the fresh result.  Serving happens
   *before* any deadline or fault can fire, so resumed slots are immune
   to re-injection — which is exactly what makes a crashed-then-resumed
   run byte-identical to an uninterrupted one.  Slot keys are only
   rendered while a journal is armed. *)
let eval_slot task x =
  let compute () = Deadline.with_root (fun () -> Task.kernel task x) in
  match if journal_armed () then Task.slot_key task x else None with
  | Some slot -> journaled ~key:(Task.name task ^ "\x00" ^ slot) compute
  | None -> compute ()

let map_array ?pool task arr =
  let pool = match pool with Some p -> p | None -> Executor.pool () in
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let name = Task.name task in
    let domains = min (Pool.jobs pool) n in
    Metrics.incr "pool.fanouts";
    Metrics.observe "pool.fanout.tasks" (float_of_int n);
    Metrics.observe "pool.fanout.domains" (float_of_int domains);
    let run_fanout () =
      (* the fan-out span is open here; kernels on spawned domains get
         re-parented to it explicitly since their span stack is fresh *)
      let parent = Span.current_id () in
      let traced = Span.enabled () in
      let times = Array.make n 0.0 in
      if Events.enabled () then
        Events.emit (Events.Sweep_started { name; total = n });
      (* per-fanout completion counter; events carry it so a consumer
         can track progress without assuming arrival order *)
      let completed = Atomic.make 0 in
      let t0 = Unix.gettimeofday () in
      let kernel i =
        let s = Unix.gettimeofday () in
        let r =
          if traced then
            Span.with_parent parent (fun () ->
                Span.with_span ~attrs:[ ("index", Json.Int i) ] name (fun () ->
                    eval_slot task arr.(i)))
          else eval_slot task arr.(i)
        in
        times.(i) <- Unix.gettimeofday () -. s;
        if Events.enabled () then begin
          let done_now = 1 + Atomic.fetch_and_add completed 1 in
          let memo_hits =
            List.fold_left
              (fun acc (c : Trace.cache_counter) -> acc + c.Trace.hits)
              0 (Trace.cache_counters ())
          in
          Events.emit
            (Events.Slot_done
               {
                 name;
                 index = i;
                 completed = done_now;
                 total = n;
                 memo_hits;
                 faults = List.length (Fault.recorded ());
                 retries = Metrics.counter_value "retry.attempts";
               })
        end;
        r
      in
      let results = Pool.map_array pool kernel (Array.init n Fun.id) in
      let wall = Unix.gettimeofday () -. t0 in
      Trace.record ~stage:name ~tasks:n
        ~busy_s:(Array.fold_left ( +. ) 0.0 times)
        ~wall_s:wall;
      results
    in
    Span.with_span
      ~attrs:[ ("tasks", Json.Int n); ("domains", Json.Int domains) ]
      ("sweep:" ^ name) run_fanout
  end

let map_list ?pool task l = Array.to_list (map_array ?pool task (Array.of_list l))

(* result mode: the same instrumented fan-out, with the kernel wrapped
   so a failure settles into its own slot as a recorded fault instead
   of aborting the sweep.  The wrapper catches before the span closes,
   so a faulted kernel still reports its span and stage sample.  The
   wrapper task itself is unkeyed — checkpoint service happens inside,
   on the *underlying* task, so the journal stores raw slot results
   (never [Ok]-wrapped ones) and only successes are journaled: faulted
   slots are recomputed, and possibly recovered, on resume. *)
let map_array_result ?pool task arr =
  let name = Task.name task in
  let safe =
    Task.make ~name (fun x ->
        match eval_slot task x with
        | v -> Ok v
        | exception e ->
          let fault = Fault.of_exn ~stage:name e in
          Fault.record fault;
          Error fault)
  in
  map_array ?pool safe arr

let map_list_result ?pool task l =
  Array.to_list (map_array_result ?pool task (Array.of_list l))
