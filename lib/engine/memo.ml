type 'v entry = Done of 'v | Pending

type 'v t = {
  name : string;
  table : (string, 'v entry) Hashtbl.t;
  lock : Mutex.t;
  settled : Condition.t;
}

let create ~name ?(size = 64) () =
  {
    name;
    table = Hashtbl.create size;
    lock = Mutex.create ();
    settled = Condition.create ();
  }

let name t = t.name

(* The settled value of [key] (a hit), or [None] once the key has been
   claimed for the caller as [Pending] (a miss).  While another domain
   holds the key [Pending], wait for it rather than duplicating the
   work. *)
let claim_or_await t key =
  Mutex.lock t.lock;
  let rec await () =
    match Hashtbl.find_opt t.table key with
    | Some (Done v) ->
      Mutex.unlock t.lock;
      Trace.cache_hit t.name;
      Some v
    | Some Pending ->
      Condition.wait t.settled t.lock;
      await ()
    | None ->
      Hashtbl.replace t.table key Pending;
      Mutex.unlock t.lock;
      Trace.cache_miss t.name;
      None
  in
  await ()

(* Settle a claimed key: publish its value, or drop its pending marker
   so a waiter can retry the compute. *)
let settle t key value =
  Mutex.lock t.lock;
  (match value with
  | Some v -> Hashtbl.replace t.table key (Done v)
  | None -> Hashtbl.remove t.table key);
  Condition.broadcast t.settled;
  Mutex.unlock t.lock

let find_or_compute t key f =
  match claim_or_await t key with
  | Some v -> v
  | None -> (
    match f () with
    | v ->
      settle t key (Some v);
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      settle t key None;
      Printexc.raise_with_backtrace e bt)

let find_or_compute_many members compute =
  let results = Array.map (fun _ -> None) members in
  let claimed = ref [] and awaited = ref [] in
  (* one critical section per table: a settled key is a hit, an absent
     one is claimed, and a key another domain holds is awaited below *)
  let claim t =
    Mutex.lock t.lock;
    let hits = ref 0 in
    Array.iteri
      (fun i (t', key) ->
        if t' == t then
          match Hashtbl.find_opt t.table key with
          | Some (Done v) ->
            results.(i) <- Some (Ok v);
            incr hits
          | Some Pending -> awaited := i :: !awaited
          | None ->
            Hashtbl.replace t.table key Pending;
            claimed := i :: !claimed)
      members;
    Mutex.unlock t.lock;
    for _ = 1 to !hits do
      Trace.cache_hit t.name
    done
  in
  ignore
    (Array.fold_left
       (fun seen (t, _) ->
         if List.memq t seen then seen
         else begin
           claim t;
           t :: seen
         end)
       [] members);
  let claimed = Array.of_list (List.sort compare !claimed) in
  Array.iter (fun i -> Trace.cache_miss (fst members.(i)).name) claimed;
  let run idx =
    let values =
      try
        let values = compute idx in
        if Array.length values <> Array.length idx then
          invalid_arg "Memo.find_or_compute_many: one result per claimed member";
        values
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Array.iter (fun i -> settle (fst members.(i)) (snd members.(i)) None) idx;
        Printexc.raise_with_backtrace e bt
    in
    Array.iteri
      (fun j i ->
        settle (fst members.(i)) (snd members.(i)) (Result.to_option values.(j));
        results.(i) <- Some values.(j))
      idx
  in
  if claimed <> [||] then run claimed;
  (* keys other domains were computing: take their values, or take the
     compute over where the owner failed *)
  List.iter
    (fun i ->
      let t, key = members.(i) in
      match claim_or_await t key with
      | Some v -> results.(i) <- Some (Ok v)
      | None -> run [| i |])
    (List.sort compare !awaited);
  Array.map Option.get results

let clear t = Mutex.protect t.lock (fun () -> Hashtbl.reset t.table)

let length t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun _ entry n -> match entry with Done _ -> n + 1 | Pending -> n)
        t.table 0)

let stats t = Trace.cache_stats t.name
