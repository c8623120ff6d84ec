(* Tests for the execution engine: domain-pool determinism, memo-cache
   behaviour, trace accounting, the CRC-32 every on-disk format shares,
   and end-to-end parallel-vs-sequential byte identity for the paper
   pipelines. *)

module Engine = Nmcache_engine
module Pool = Nmcache_engine.Pool
module Memo = Nmcache_engine.Memo
module Task = Nmcache_engine.Task
module Sweep = Nmcache_engine.Sweep
module Trace = Nmcache_engine.Trace
module Executor = Nmcache_engine.Executor
module Crc32 = Nmcache_engine.Crc32

(* --- CRC-32 ------------------------------------------------------------- *)

let test_crc32_vector () =
  (* the canonical IEEE 802.3 check value *)
  Alcotest.(check int) "crc32(123456789)" 0xCBF43926 (Crc32.crc "123456789");
  Alcotest.(check int) "empty string" Crc32.init (Crc32.crc "");
  Alcotest.(check bool) "crc distinguishes" true (Crc32.crc "abc" <> Crc32.crc "abd")

(* journals checksum a record piecewise (key, then value) and must get
   the CRC of the concatenation, which older files carry *)
let crc32_chaining_prop =
  QCheck.Test.make ~name:"crc32: chained update equals crc of the concatenation"
    ~count:200
    QCheck.(pair string string)
    (fun (a, b) ->
      let c = Crc32.update (Crc32.update Crc32.init a) b in
      c = Crc32.crc (a ^ b) && c >= 0 && c <= 0xFFFFFFFF)

(* the CRC's definition, one bit at a time and table-free, so a wrong
   slice table cannot agree with it *)
let crc32_bitwise s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

(* strings of 0-300 bytes cut at random points: lengths fall on both
   sides of every multiple of 8, and chained updates start unaligned *)
let crc32_reference_prop =
  QCheck.Test.make ~name:"crc32: chained update equals a bit-at-a-time reference"
    ~count:300
    (QCheck.make
       ~print:(fun (s, cuts) ->
         Printf.sprintf "%S cut at [%s]" s
           (String.concat "; " (List.map string_of_int cuts)))
       QCheck.Gen.(
         let* s = string_size (int_range 0 300) in
         let+ cuts = list_size (int_range 0 4) (int_bound (String.length s)) in
         (s, List.sort compare cuts)))
    (fun (s, cuts) ->
      let crc, last =
        List.fold_left
          (fun (crc, from) cut -> (Crc32.update crc (String.sub s from (cut - from)), cut))
          (Crc32.init, 0) cuts
      in
      let crc = Crc32.update crc (String.sub s last (String.length s - last)) in
      crc = crc32_bitwise s && Crc32.crc s = crc)

(* --- pool --------------------------------------------------------------- *)

let test_pool_matches_sequential () =
  let input = Array.init 200 (fun i -> i) in
  let f i = (i * i) + 7 in
  let seq = Array.map f input in
  List.iter
    (fun jobs ->
      let par = Pool.map_array (Pool.create ~jobs) f input in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d equals sequential" jobs)
        seq par)
    [ 1; 2; 4; 8 ]

let test_pool_ordering_under_uneven_work () =
  (* skew the work so late indices finish first if scheduling leaked
     into the result order *)
  let input = Array.init 64 (fun i -> i) in
  let f i =
    let spin = if i < 4 then 200_000 else 10 in
    let acc = ref 0 in
    for k = 1 to spin do
      acc := (!acc + k) mod 9973
    done;
    (i, !acc)
  in
  let seq = Pool.map_array Pool.sequential f input in
  let par = Pool.map_array (Pool.create ~jobs:4) f input in
  Alcotest.(check (array (pair int int))) "order is input order" seq par

let test_pool_exception_propagates () =
  let input = Array.init 32 (fun i -> i) in
  Alcotest.check_raises "kernel failure re-raised" (Failure "kernel 13") (fun () ->
      ignore
        (Pool.map_array (Pool.create ~jobs:4)
           (fun i -> if i = 13 then failwith "kernel 13" else i)
           input))

let test_pool_nested_degrades () =
  let inner () =
    Pool.map_array (Pool.create ~jobs:4) (fun i -> i + 1) (Array.init 8 Fun.id)
  in
  let outer =
    Pool.map_array (Pool.create ~jobs:2)
      (fun _ -> Array.fold_left ( + ) 0 (inner ()))
      (Array.init 4 Fun.id)
  in
  Alcotest.(check (array int)) "nested sweeps still correct" (Array.make 4 36) outer

let test_pool_validation () =
  Alcotest.(check bool) "jobs=0 rejected" true
    (try
       ignore (Pool.create ~jobs:0);
       false
     with Invalid_argument _ -> true)

(* --- memo --------------------------------------------------------------- *)

let test_memo_hits () =
  Trace.reset ();
  let memo : int Memo.t = Memo.create ~name:"test.memo" () in
  let computed = ref 0 in
  let get k =
    Memo.find_or_compute memo k (fun () ->
        incr computed;
        String.length k)
  in
  Alcotest.(check int) "first compute" 3 (get "abc");
  Alcotest.(check int) "second is a hit" 3 (get "abc");
  Alcotest.(check int) "distinct key computes" 2 (get "xy");
  Alcotest.(check int) "computed twice" 2 !computed;
  Alcotest.(check (pair int int)) "hit/miss counters" (1, 2) (Memo.stats memo);
  Alcotest.(check int) "two entries" 2 (Memo.length memo);
  Memo.clear memo;
  Alcotest.(check int) "cleared" 0 (Memo.length memo)

let test_memo_parallel_shared () =
  let memo : int Memo.t = Memo.create ~name:"test.memo-par" () in
  let results =
    Pool.map_array (Pool.create ~jobs:4)
      (fun i -> Memo.find_or_compute memo (string_of_int (i mod 3)) (fun () -> i mod 3))
      (Array.init 64 Fun.id)
  in
  Array.iteri
    (fun i v -> Alcotest.(check int) "value matches key" (i mod 3) v)
    results;
  Alcotest.(check int) "at most three entries" 3 (Memo.length memo)

let test_memo_inflight_dedup () =
  (* four domains all asking for the same slow key must trigger exactly
     one computation: the others block until the value settles *)
  let memo : int Memo.t = Memo.create ~name:"test.memo-dedup" () in
  let computed = Atomic.make 0 in
  let slow () =
    Atomic.incr computed;
    Unix.sleepf 0.05;
    42
  in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> Memo.find_or_compute memo "k" slow))
  in
  List.iter
    (fun d -> Alcotest.(check int) "settled value" 42 (Domain.join d))
    domains;
  Alcotest.(check int) "computed exactly once" 1 (Atomic.get computed)

let test_memo_exception_clears_pending () =
  (* a failing compute must drop its Pending marker and wake waiters, so
     a queued domain retries the compute instead of blocking forever *)
  let memo : int Memo.t = Memo.create ~name:"test.memo-exn" () in
  let attempts = Atomic.make 0 in
  let release = Atomic.make false in
  let compute () =
    if Atomic.fetch_and_add attempts 1 = 0 then begin
      (* first compute: hold the Pending slot until released, then fail *)
      while not (Atomic.get release) do
        Domain.cpu_relax ()
      done;
      failwith "compute failed"
    end
    else 42
  in
  let first =
    Domain.spawn (fun () ->
        try
          ignore (Memo.find_or_compute memo "k" compute);
          false
        with Failure _ -> true)
  in
  (* wait until the first compute owns the Pending marker, then queue a
     waiter on the same key and let the compute fail under it *)
  while Atomic.get attempts = 0 do
    Domain.cpu_relax ()
  done;
  let waiter = Domain.spawn (fun () -> Memo.find_or_compute memo "k" compute) in
  Unix.sleepf 0.02;
  Atomic.set release true;
  Alcotest.(check bool) "first compute raised to its caller" true (Domain.join first);
  Alcotest.(check int) "waiter retried and succeeded" 42 (Domain.join waiter);
  Alcotest.(check int) "exactly two computes ran" 2 (Atomic.get attempts);
  Alcotest.(check int) "retry's value settled" 42
    (Memo.find_or_compute memo "k" (fun () -> 0))

(* --- memo batches ---------------------------------------------------------- *)

let batch table keys = Array.map (fun k -> (table, k)) keys
let values rs = Array.map (function Ok v -> v | Error e -> raise e) rs

let test_memo_many_hits () =
  Trace.reset ();
  let memo : int Memo.t = Memo.create ~name:"test.memo-many" () in
  let other : int Memo.t = Memo.create ~name:"test.memo-many-other" () in
  ignore (Memo.find_or_compute memo "a" (fun () -> 1));
  let calls = ref [] in
  let members = Array.append (batch memo [| "a"; "b"; "c" |]) (batch other [| "a" |]) in
  let got =
    Memo.find_or_compute_many members (fun claimed ->
        calls := claimed :: !calls;
        Array.map (fun i -> Ok (10 * i)) claimed)
  in
  Alcotest.(check (array int)) "values in member order" [| 1; 10; 20; 30 |] (values got);
  Alcotest.(check (list (array int))) "one compute, memoised member skipped"
    [ [| 1; 2; 3 |] ] !calls;
  Alcotest.(check (pair int int)) "one hit, two misses" (1, 3) (Memo.stats memo);
  Alcotest.(check (pair int int)) "other table keeps its own entry" (0, 1) (Memo.stats other);
  let again = Memo.find_or_compute_many members (fun _ -> Alcotest.fail "recomputed") in
  Alcotest.(check (array int)) "all hits now" [| 1; 10; 20; 30 |] (values again);
  Alcotest.(check (pair int int)) "each member counts as a hit" (4, 3) (Memo.stats memo);
  Alcotest.(check int) "other table" 1 (Memo.length other)

let test_memo_many_overlap_across_domains () =
  (* two domains ask at once for key sets that share k3..k5: each key
     is computed exactly once, and both callers see every value *)
  let memo : int Memo.t = Memo.create ~name:"test.memo-many-par" () in
  let computed = Array.init 9 (fun _ -> Atomic.make 0) in
  let go = Atomic.make false in
  let ask lo hi =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        let keys = Array.init (hi - lo + 1) (fun i -> string_of_int (lo + i)) in
        Memo.find_or_compute_many (batch memo keys) (fun claimed ->
            Unix.sleepf 0.02;
            Array.map
              (fun i ->
                let k = int_of_string keys.(i) in
                Atomic.incr computed.(k);
                Ok (k * k))
              claimed)
        |> values)
  in
  let a = ask 0 5 and b = ask 3 8 in
  Atomic.set go true;
  Alcotest.(check (array int)) "first caller" (Array.init 6 (fun i -> i * i)) (Domain.join a);
  Alcotest.(check (array int)) "second caller"
    (Array.init 6 (fun i -> (i + 3) * (i + 3)))
    (Domain.join b);
  Array.iteri
    (fun k c -> Alcotest.(check int) (Printf.sprintf "key %d computed once" k) 1 (Atomic.get c))
    computed

let test_memo_many_failures () =
  let memo : int Memo.t = Memo.create ~name:"test.memo-many-exn" () in
  (* an Error fails its member alone: the rest are published *)
  let got =
    Memo.find_or_compute_many (batch memo [| "x"; "y" |]) (fun claimed ->
        Array.map (fun i -> if i = 0 then Error Exit else Ok 7) claimed)
  in
  Alcotest.(check bool) "x failed" true (got.(0) = Error Exit);
  Alcotest.(check bool) "y published" true (got.(1) = Ok 7);
  Alcotest.(check int) "only y memoised" 1 (Memo.length memo);
  (* a raising compute drops exactly the markers it claimed: "held" is
     pending in another domain and stays so until its owner settles *)
  let owned = Atomic.make false and release = Atomic.make false in
  let owner =
    Domain.spawn (fun () ->
        Memo.find_or_compute memo "held" (fun () ->
            Atomic.set owned true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done;
            5))
  in
  while not (Atomic.get owned) do
    Domain.cpu_relax ()
  done;
  let claimed = ref [||] in
  Alcotest.check_raises "compute raises through" (Failure "walk died") (fun () ->
      ignore
        (Memo.find_or_compute_many (batch memo [| "held"; "p"; "q"; "y" |]) (fun c ->
             claimed := c;
             failwith "walk died")));
  Alcotest.(check (array int)) "claimed p and q only" [| 1; 2 |] !claimed;
  (* "held" is still pending: a new asker waits for its owner *)
  let asker = Domain.spawn (fun () -> Memo.find_or_compute memo "held" (fun () -> 99)) in
  Unix.sleepf 0.02;
  Atomic.set release true;
  Alcotest.(check int) "owner settled its key" 5 (Domain.join owner);
  Alcotest.(check int) "the asker waited for the owner" 5 (Domain.join asker);
  Alcotest.(check int) "p and q recompute" 9
    (Memo.find_or_compute memo "p" (fun () -> 4) + Memo.find_or_compute memo "q" (fun () -> 5));
  Alcotest.(check int) "held, y, p and q memoised" 4 (Memo.length memo)

(* --- trace --------------------------------------------------------------- *)

let test_trace_summary_smoke () =
  Trace.reset ();
  let task = Task.make ~name:"test.stage" (fun i -> i * 2) in
  let out = Sweep.map_array ~pool:(Pool.create ~jobs:2) task (Array.init 10 Fun.id) in
  Alcotest.(check int) "sweep result" 18 out.(9);
  ignore (Memo.find_or_compute (Memo.create ~name:"test.cache" ()) "k" (fun () -> 1));
  let s = Trace.summary () in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "stage listed" true (contains "test.stage");
  Alcotest.(check bool) "task count listed" true (contains "10");
  Alcotest.(check bool) "cache listed" true (contains "test.cache");
  Alcotest.(check bool) "speedup column" true (contains "speedup");
  let st = List.find (fun (st : Trace.stage) -> st.Trace.name = "test.stage") (Trace.stages ()) in
  Alcotest.(check int) "one call" 1 st.Trace.calls;
  Alcotest.(check int) "ten tasks" 10 st.Trace.tasks;
  Trace.reset ();
  Alcotest.(check string) "reset empties the summary" "" (Trace.summary ())

(* --- executor ------------------------------------------------------------- *)

let test_executor_with_jobs () =
  let before = Executor.get_jobs () in
  Executor.with_jobs 3 (fun () ->
      Alcotest.(check int) "temporarily 3" 3 (Executor.get_jobs ()));
  Alcotest.(check int) "restored" before (Executor.get_jobs ())

(* --- end-to-end determinism ------------------------------------------------ *)

let ctx = lazy (Core.Context.quick ())

let render_experiment id =
  let e = Option.get (Core.Experiments.find id) in
  match Core.Experiments.run_many (Lazy.force ctx) [ e ] with
  | [ (_, artefacts) ] -> Core.Report.render artefacts
  | _ -> Alcotest.fail "run_many shape"

let test_parallel_byte_identical id () =
  let seq = Executor.with_jobs 1 (fun () -> render_experiment id) in
  (* drop every memoised intermediate so the parallel run recomputes *)
  Core.Context.clear_memo ();
  Nmcache_workload.Missrate.clear_cache ();
  let par = Executor.with_jobs 4 (fun () -> render_experiment id) in
  Alcotest.(check bool) (id ^ ": --jobs 4 matches sequential bytes") true
    (String.equal seq par)

let suite =
  [
    Alcotest.test_case "pool matches sequential" `Quick test_pool_matches_sequential;
    Alcotest.test_case "pool preserves order" `Quick test_pool_ordering_under_uneven_work;
    Alcotest.test_case "pool exception propagates" `Quick test_pool_exception_propagates;
    Alcotest.test_case "nested pools degrade safely" `Quick test_pool_nested_degrades;
    Alcotest.test_case "pool validation" `Quick test_pool_validation;
    Alcotest.test_case "memo hit/miss accounting" `Quick test_memo_hits;
    Alcotest.test_case "memo shared across domains" `Quick test_memo_parallel_shared;
    Alcotest.test_case "memo dedups in-flight computes" `Quick test_memo_inflight_dedup;
    Alcotest.test_case "memo exception clears pending" `Quick
      test_memo_exception_clears_pending;
    Alcotest.test_case "memo batch: hits are not recomputed" `Quick test_memo_many_hits;
    Alcotest.test_case "memo batch: overlapping domains compute once" `Quick
      test_memo_many_overlap_across_domains;
    Alcotest.test_case "memo batch: failures drop only their markers" `Quick
      test_memo_many_failures;
    Alcotest.test_case "trace summary smoke" `Quick test_trace_summary_smoke;
    Alcotest.test_case "crc32: IEEE 802.3 check vector" `Quick test_crc32_vector;
    Generators.to_alcotest crc32_chaining_prop;
    Generators.to_alcotest crc32_reference_prop;
    Alcotest.test_case "executor with_jobs" `Quick test_executor_with_jobs;
    Alcotest.test_case "schemes parallel == sequential" `Slow
      (test_parallel_byte_identical "schemes");
    Alcotest.test_case "l2sweep parallel == sequential" `Slow
      (test_parallel_byte_identical "l2sweep");
  ]
