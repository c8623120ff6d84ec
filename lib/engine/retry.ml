(* Per-stage retry.

   Transient faults — an injected chaos hit, a fit left unconverged by
   an unlucky start — should be retried at the boundary that understands
   them before being recorded as casualties.  The retried kernels run
   in-process and are deterministic, so the next attempt starts at once:
   a pause would wait for nothing and only spend the kernel's deadline. *)

let default_max_attempts = 3

(* everything else (singular systems, domain errors, crashes, deadlines)
   fails identically on every attempt *)
let retry_kinds = [ Fault.Injected; Fault.Fit_diverged ]

(* process-wide budget, overridable from the CLI (--retries) *)
let budget = Atomic.make default_max_attempts

let set_max_attempts n =
  if n < 1 then invalid_arg (Printf.sprintf "Retry.set_max_attempts: %d < 1" n);
  Atomic.set budget n

let reset () = Atomic.set budget default_max_attempts

let retryable (f : Fault.t) = List.mem f.Fault.kind retry_kinds

let run ~stage f =
  let max_attempts = Atomic.get budget in
  let rec go attempt =
    let last = attempt >= max_attempts in
    match f ~attempt ~last with
    | v ->
      if attempt > 1 then begin
        Metrics.incr "retry.recovered";
        Metrics.incr ("retry.recovered." ^ stage)
      end;
      v
    | exception Fault.Fault fault when (not last) && retryable fault ->
      Metrics.incr "retry.attempts";
      Metrics.incr ("retry.attempts." ^ stage);
      go (attempt + 1)
    | exception (Fault.Fault fault as e) ->
      if last && max_attempts > 1 && retryable fault then begin
        Metrics.incr "retry.exhausted";
        Metrics.incr ("retry.exhausted." ^ stage)
      end;
      raise e
  in
  go 1
