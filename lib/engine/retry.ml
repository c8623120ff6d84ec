(* Per-stage retry with deterministic backoff.

   Transient faults — an injected chaos hit, a fit left unconverged by
   an unlucky start — should be retried at the boundary that understands
   them before being recorded as casualties.  The *decision path* is
   pure: which kinds retry, how many attempts, and the backoff schedule
   are all functions of the policy and of (seed, stage, key, attempt)
   via the Faultpoint hash draw.  Only the sleep itself touches the
   clock, and it is injectable so tests run instantly. *)

type policy = {
  max_attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  jitter : float;
  retry_kinds : Fault.kind list;
}

let default_policy =
  {
    max_attempts = 3;
    base_delay_s = 0.002;
    max_delay_s = 0.050;
    jitter = 0.5;
    retry_kinds = [ Fault.Injected; Fault.Fit_diverged ];
  }

(* process-wide policy, overridable from the CLI (--retries) *)
let current : policy Atomic.t = Atomic.make default_policy

let policy () = Atomic.get current
let set_policy p =
  if p.max_attempts < 1 then
    invalid_arg (Printf.sprintf "Retry.set_policy: max_attempts %d < 1" p.max_attempts);
  Atomic.set current p

let set_max_attempts n = set_policy { (Atomic.get current) with max_attempts = n }
let reset () = Atomic.set current default_policy

(* injectable sleeper: production sleeps, tests don't *)
let sleeper : (float -> unit) Atomic.t = Atomic.make Unix.sleepf
let set_sleep f = Atomic.set sleeper f

let backoff_s p ~seed ~stage ~key ~attempt =
  let exp_delay = p.base_delay_s *. (2.0 ** float_of_int (max 0 (attempt - 1))) in
  let capped = Float.min p.max_delay_s exp_delay in
  (* jitter in [1 - j, 1 + j), from the same splitmix draw the fault
     points use: a pure function of its inputs, no wall clock *)
  let u = Faultpoint.draw ~seed ~point:("retry." ^ stage) ~key:(Printf.sprintf "%s#%d" key attempt) in
  capped *. (1.0 +. (p.jitter *. ((2.0 *. u) -. 1.0)))

let retryable p (f : Fault.t) = List.mem f.Fault.kind p.retry_kinds

let run ?policy ~stage ~key f =
  let p = match policy with Some p -> p | None -> Atomic.get current in
  let seed = Option.value (Faultpoint.armed_seed ()) ~default:0L in
  let rec go attempt =
    let last = attempt >= p.max_attempts in
    match f ~attempt ~last with
    | v ->
      if attempt > 1 then begin
        Metrics.incr "retry.recovered";
        Metrics.incr ("retry.recovered." ^ stage)
      end;
      v
    | exception Fault.Fault fault when (not last) && retryable p fault ->
      Metrics.incr "retry.attempts";
      Metrics.incr ("retry.attempts." ^ stage);
      (Atomic.get sleeper) (backoff_s p ~seed ~stage ~key ~attempt);
      go (attempt + 1)
    | exception (Fault.Fault fault as e) ->
      if last && p.max_attempts > 1 && retryable p fault then begin
        Metrics.incr "retry.exhausted";
        Metrics.incr ("retry.exhausted." ^ stage)
      end;
      raise e
  in
  go 1
