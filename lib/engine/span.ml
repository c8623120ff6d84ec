type span = {
  id : int;
  parent : int option;
  name : string;
  tid : int;
  ts_us : float;
  dur_us : float;
  attrs : (string * Json.t) list;
}

let schema_version = 1
let enabled_flag = Atomic.make false
let next_id = Atomic.make 1
let epoch = Atomic.make 0.0 (* Unix time of set_enabled true *)
let mutex = Mutex.create ()
let completed : span list ref = ref []

(* per-domain stack of open span ids; the list ref is domain-local so
   no lock is needed to push/pop *)
let stack_key : int list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let enabled () = Atomic.get enabled_flag

let reset () =
  Mutex.protect mutex (fun () -> completed := []);
  Atomic.set epoch (Unix.gettimeofday ())

let set_enabled b =
  if b then reset ();
  Atomic.set enabled_flag b

let current_id () =
  match !(Domain.DLS.get stack_key) with [] -> None | id :: _ -> Some id

let with_parent parent f =
  let stack = Domain.DLS.get stack_key in
  let saved = !stack in
  stack := (match parent with Some id -> [ id ] | None -> []);
  Fun.protect ~finally:(fun () -> stack := saved) f

let record s = Mutex.protect mutex (fun () -> completed := s :: !completed)

(* close a span whose body allocated [words] minor words *)
let close ~stack ~id ~parent ~name ~attrs ~t0 ~words =
  let t1 = Unix.gettimeofday () in
  (match !stack with
  | top :: rest when top = id -> stack := rest
  | _ -> () (* enabled flag flipped mid-span; stack already reset *));
  let e = Atomic.get epoch in
  record
    {
      id;
      parent;
      name;
      tid = (Domain.self () :> int);
      ts_us = (t0 -. e) *. 1e6;
      dur_us = (t1 -. t0) *. 1e6;
      attrs = attrs @ [ ("minor_words", Json.Int (int_of_float words)) ];
    }

(* [Gc.minor_words] reads this domain's minor-heap pointer: exact, and a
   few nanoseconds a call.  It is read last on entry and first on exit,
   and [f] is called directly rather than through [Fun.protect], so a
   span counts only the words [f] allocates. *)
let with_span ?(attrs = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let parent = match !stack with [] -> None | id :: _ -> Some id in
    let id = Atomic.fetch_and_add next_id 1 in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    let w0 = Gc.minor_words () in
    match f () with
    | v ->
      close ~stack ~id ~parent ~name ~attrs ~t0 ~words:(Gc.minor_words () -. w0);
      v
    | exception exn ->
      let words = Gc.minor_words () -. w0 in
      let bt = Printexc.get_raw_backtrace () in
      close ~stack ~id ~parent ~name ~attrs ~t0 ~words;
      Printexc.raise_with_backtrace exn bt
  end

let spans () =
  let all = Mutex.protect mutex (fun () -> !completed) in
  List.sort
    (fun a b ->
      match compare a.ts_us b.ts_us with 0 -> compare a.id b.id | c -> c)
    all

let to_chrome_json () =
  let events =
    List.map
      (fun s ->
        let args =
          ("span_id", Json.Int s.id)
          :: (match s.parent with
             | Some p -> [ ("parent_id", Json.Int p) ]
             | None -> [])
          @ s.attrs
        in
        Json.Obj
          [
            ("name", Json.String s.name);
            ("cat", Json.String "engine");
            ("ph", Json.String "X");
            ("ts", Json.Float s.ts_us);
            ("dur", Json.Float s.dur_us);
            ("pid", Json.Int 1);
            ("tid", Json.Int s.tid);
            ("args", Json.Obj args);
          ])
      (spans ())
  in
  let process_name =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.String "ppcache") ]);
      ]
  in
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("displayTimeUnit", Json.String "ms");
      ("traceEvents", Json.List (process_name :: events));
    ]
