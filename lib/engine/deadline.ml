(* Cooperative per-kernel budgets.

   A deadline is a per-domain token (DLS, so spawned pool workers each
   carry their own) holding an absolute expiry instant.  Long kernels
   poll it at loop seams — fit iterations, anneal steps, cachesim
   batches — and an expired poll raises a typed [Timed_out] fault,
   which the sweep's result boundary settles into the kernel's own
   slot.  Cancellation is cooperative by design: OCaml domains cannot
   be killed safely, so the guarantee is "a runaway kernel that polls
   becomes a fault and the pool drains", not preemption.

   Only the *decision to arm* is configuration; whether a poll fires
   does consult the wall clock, so deadline faults are inherently
   timing-dependent.  Deterministic tests therefore use a zero budget
   (first poll always fires) or no budget at all; the fault's detail
   string contains only the configured budget, never the elapsed time,
   so rendered output stays stable when a deadline does fire. *)

type state = {
  mutable armed : bool;
  mutable expires_at : float; (* Unix.gettimeofday instant *)
  mutable budget_s : float;
}

let dls : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { armed = false; expires_at = 0.0; budget_s = 0.0 })

(* process-wide default budget, armed around every sweep slot (CLI
   --deadline); None means kernels run unbounded *)
let default_budget : float option Atomic.t = Atomic.make None

let set_default = function
  | Some b when not (b >= 0.0) ->
    invalid_arg (Printf.sprintf "Deadline.set_default: negative budget %g" b)
  | v -> Atomic.set default_budget v

let default () = Atomic.get default_budget
let armed () = (Domain.DLS.get dls).armed

let with_budget ~budget_s f =
  if not (budget_s >= 0.0) then
    invalid_arg (Printf.sprintf "Deadline.with_budget: negative budget %g" budget_s);
  let s = Domain.DLS.get dls in
  let prev_armed = s.armed and prev_exp = s.expires_at and prev_b = s.budget_s in
  s.armed <- true;
  s.expires_at <- Unix.gettimeofday () +. budget_s;
  s.budget_s <- budget_s;
  Fun.protect
    ~finally:(fun () ->
      s.armed <- prev_armed;
      s.expires_at <- prev_exp;
      s.budget_s <- prev_b)
    f

let with_root f =
  (* arm the process default at a sweep-slot root, unless an outer
     kernel on this domain already armed a budget — nested sweeps run
     sequentially on the worker's own domain (see Pool), so the DLS
     token naturally covers them and must not be reset *)
  match Atomic.get default_budget with
  | Some b when not (Domain.DLS.get dls).armed -> with_budget ~budget_s:b f
  | _ -> f ()

(* inclusive comparison: a zero budget must fire on the very first
   poll even when it lands in the same clock tick as arming *)
let expired () =
  let s = Domain.DLS.get dls in
  s.armed && Unix.gettimeofday () >= s.expires_at

let poll ~stage =
  let s = Domain.DLS.get dls in
  if s.armed && Unix.gettimeofday () >= s.expires_at then begin
    Metrics.incr "deadline.fired";
    Fault.error ~kind:Fault.Timed_out ~stage
      (Printf.sprintf "exceeded the %gs kernel budget" s.budget_s)
  end
