type stage = {
  name : string;
  mutable calls : int;
  mutable tasks : int;
  mutable busy_s : float;
  mutable wall_s : float;
}

type cache_counter = {
  cache : string;
  mutable hits : int;
  mutable misses : int;
}

let mutex = Mutex.create ()
let stage_table : (string, stage) Hashtbl.t = Hashtbl.create 16
let stage_order : string list ref = ref []
let cache_table : (string, cache_counter) Hashtbl.t = Hashtbl.create 16
let cache_order : string list ref = ref []

let record ~stage:name ~tasks ~busy_s ~wall_s =
  Mutex.protect mutex (fun () ->
      let s =
        match Hashtbl.find_opt stage_table name with
        | Some s -> s
        | None ->
          let s = { name; calls = 0; tasks = 0; busy_s = 0.0; wall_s = 0.0 } in
          Hashtbl.replace stage_table name s;
          stage_order := name :: !stage_order;
          s
      in
      s.calls <- s.calls + 1;
      s.tasks <- s.tasks + tasks;
      s.busy_s <- s.busy_s +. busy_s;
      s.wall_s <- s.wall_s +. wall_s)

let with_stage name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 in
      record ~stage:name ~tasks:1 ~busy_s:dt ~wall_s:dt)
    f

let cache_counter name =
  match Hashtbl.find_opt cache_table name with
  | Some c -> c
  | None ->
    let c = { cache = name; hits = 0; misses = 0 } in
    Hashtbl.replace cache_table name c;
    cache_order := name :: !cache_order;
    c

let cache_hit name =
  Mutex.protect mutex (fun () ->
      let c = cache_counter name in
      c.hits <- c.hits + 1)

let cache_miss name =
  Mutex.protect mutex (fun () ->
      let c = cache_counter name in
      c.misses <- c.misses + 1)

let cache_stats name =
  Mutex.protect mutex (fun () ->
      match Hashtbl.find_opt cache_table name with
      | Some c -> (c.hits, c.misses)
      | None -> (0, 0))

let stages () =
  Mutex.protect mutex (fun () ->
      List.rev_map (fun n -> Hashtbl.find stage_table n) !stage_order)

let cache_counters () =
  Mutex.protect mutex (fun () ->
      List.rev_map (fun n -> Hashtbl.find cache_table n) !cache_order)

let reset () =
  Mutex.protect mutex (fun () ->
      Hashtbl.reset stage_table;
      stage_order := [];
      Hashtbl.reset cache_table;
      cache_order := [])

(* --- rendering ------------------------------------------------------ *)

let render_table buf ~title ~columns rows =
  let all = columns :: rows in
  let n = List.length columns in
  let widths = Array.make n 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    all;
  Buffer.add_string buf (Printf.sprintf "== %s ==\n" title);
  let row cells =
    Buffer.add_string buf "  ";
    List.iteri
      (fun i cell -> Buffer.add_string buf (Printf.sprintf "%-*s" (widths.(i) + 2) cell))
      cells;
    Buffer.add_char buf '\n'
  in
  row columns;
  Buffer.add_string buf "  ";
  Array.iter (fun w -> Buffer.add_string buf (String.make (w + 2) '-')) widths;
  Buffer.add_char buf '\n';
  List.iter row rows

let summary () =
  let ss = stages () and cs = cache_counters () in
  if ss = [] && cs = [] then ""
  else begin
    let buf = Buffer.create 1024 in
    if ss <> [] then begin
      let rows =
        List.map
          (fun s ->
            [
              s.name;
              string_of_int s.calls;
              string_of_int s.tasks;
              Printf.sprintf "%.3f" s.busy_s;
              Printf.sprintf "%.3f" s.wall_s;
              (if s.wall_s > 0.0 then Printf.sprintf "%.2fx" (s.busy_s /. s.wall_s)
               else "-");
            ])
          ss
      in
      render_table buf ~title:"engine trace: stages"
        ~columns:[ "stage"; "calls"; "tasks"; "busy (s)"; "wall (s)"; "speedup" ]
        rows
    end;
    if cs <> [] then begin
      if ss <> [] then Buffer.add_char buf '\n';
      let rows =
        List.map
          (fun c ->
            let total = c.hits + c.misses in
            [
              c.cache;
              string_of_int c.hits;
              string_of_int c.misses;
              (if total = 0 then "-"
               else Printf.sprintf "%.0f%%" (100.0 *. float_of_int c.hits /. float_of_int total));
            ])
          cs
      in
      render_table buf ~title:"engine trace: memo caches"
        ~columns:[ "cache"; "hits"; "misses"; "hit rate" ]
        rows
    end;
    Buffer.contents buf
  end
