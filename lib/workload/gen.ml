module Rng = Nmcache_numerics.Rng
module Deadline = Nmcache_engine.Deadline
module Faultpoint = Nmcache_engine.Faultpoint
module Json = Nmcache_engine.Json
module Memo = Nmcache_engine.Memo
module Metrics = Nmcache_engine.Metrics
module Retry = Nmcache_engine.Retry
module Span = Nmcache_engine.Span
module Stream_trace = Nmcache_cachesim.Stream_trace

(* [next] returns packed entries (Stream_trace.pack), so drawing an
   access allocates nothing; [Access.t] is built only on request. *)
type t = {
  name : string;
  next : unit -> int;
}

let make ~name next = { name; next }
let name t = t.name
let next_packed t = t.next ()

let next t =
  let e = t.next () in
  { Access.addr = Stream_trace.addr e; write = Stream_trace.is_write e }

let take t n =
  if n < 0 then invalid_arg "Gen.take: n < 0";
  Array.init n (fun _ -> next t)

(* The trace loop every simulation over a generator shares.  It polls
   the cooperative deadline once every 4096 accesses: often enough to
   bound a wedged traversal, rarely enough to stay off the profile. *)
let iter ~stage t n f =
  let next = t.next in
  for i = 1 to n do
    if i land 4095 = 0 then Deadline.poll ~stage;
    let e = next () in
    f (Stream_trace.addr e) (Stream_trace.is_write e)
  done

let fill t entries pos len =
  if pos < 0 || len < 0 || pos > Array.length entries - len then invalid_arg "Gen.fill";
  let next = t.next in
  for i = pos to pos + len - 1 do
    Array.unsafe_set entries i (next ())
  done

(* A warm-up prefix of half the trace fills caches and LRU stacks
   before counters start, so every consumer measures steady state
   rather than cold start. *)
let warmup_fraction = 0.5

type consumer = {
  feed : int array -> int -> int -> unit;
  measure : unit -> unit;
}

let chunk_size = 4096

(* Each chunk is drawn once into one buffer and handed whole to every
   consumer in turn, so an access costs a consumer one step of its own
   kernel rather than a call per access.  The split into an unmeasured
   prefix and a measured rest is made here, once, for all of them: the
   chunk holding the cut is fed in two pieces, with [measure] between.
   The deadline is polled before each full chunk, once per 4096
   accesses as in [iter]. *)
let walk ~stage t n consumers =
  Metrics.incr "workload.walks";
  let k = Array.length consumers in
  Span.with_span
    ~attrs:
      [ ("workload", Json.String t.name); ("n", Json.Int n); ("consumers", Json.Int k) ]
    "workload:walk"
    (fun () ->
      let warm = int_of_float (warmup_fraction *. float_of_int n) in
      let buf = Array.make (max 1 (min chunk_size n)) 0 in
      let feed pos len =
        for j = 0 to k - 1 do
          (Array.unsafe_get consumers j).feed buf pos len
        done
      in
      let measure () = Array.iter (fun c -> c.measure ()) consumers in
      if n = 0 then measure ();
      let drawn = ref 0 in
      while !drawn < n do
        let len = min chunk_size (n - !drawn) in
        if len = chunk_size then Deadline.poll ~stage;
        fill t buf 0 len;
        let cut = warm - !drawn in
        if cut >= 0 && cut < len then begin
          if cut > 0 then feed 0 cut;
          measure ();
          feed cut (len - cut)
        end
        else feed 0 len;
        drawn := !drawn + len
      done)

let walk_memoised ~stage ~gen ~n members =
  let results =
    Memo.find_or_compute_many
      (Array.map (fun (table, key, _) -> (table, key)) members)
      (fun claimed ->
        (* every member passes its own fault point and retry boundary,
           under its own key, before the walk: an injected fault fails
           that member alone *)
        let started =
          Array.map
            (fun i ->
              let _, key, start = members.(i) in
              match
                Retry.run ~stage (fun ~attempt ~last:_ ->
                    Faultpoint.hit ~attempt ~point:stage ~key ());
                start ()
              with
              | s -> Ok s
              | exception e -> Error e)
            claimed
        in
        let live =
          Array.of_list
            (List.filter_map
               (function Ok (c, _) -> Some c | Error _ -> None)
               (Array.to_list started))
        in
        if Array.length live > 0 then walk ~stage (gen ()) n live;
        Array.map
          (function
            | Ok (_, finish) -> ( try Ok (finish ()) with e -> Error e)
            | Error e -> Error e)
          started)
  in
  Array.map (function Ok v -> v | Error e -> raise e) results

let mix ~name ~rng parts =
  if parts = [] then invalid_arg "Gen.mix: empty";
  List.iter (fun (w, _) -> if w <= 0.0 then invalid_arg "Gen.mix: non-positive weight") parts;
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 parts in
  let parts = Array.of_list parts in
  let last = Array.length parts - 1 in
  (* part [i] is drawn when [u] first falls below the running weight
     sum through [i]; the last part takes the remainder *)
  let bounds = Array.make last 0.0 in
  let acc = ref 0.0 in
  for i = 0 to last - 1 do
    acc := !acc +. fst parts.(i);
    bounds.(i) <- !acc
  done;
  let gens = Array.map snd parts in
  make ~name (fun () ->
      (* [Rng.float rng *. total], without the boxed float return;
         [!i] stays at most [last], below both arrays' lengths *)
      let u = Float.of_int (Rng.bits53 rng) *. 0x1.0p-53 *. total in
      let i = ref 0 in
      while !i < last && not (u < Array.unsafe_get bounds !i) do
        incr i
      done;
      (Array.unsafe_get gens !i).next ())

(* [Rng.bernoulli rng ~p] written out, with [p] clamped once: the same
   uniform against the same bound *)
let with_write_fraction ~rng ~p t =
  let p = Float.min 1.0 (Float.max 0.0 p) in
  let next = t.next in
  make ~name:t.name (fun () ->
      let e = next () in
      Stream_trace.pack (Stream_trace.addr e)
        (Float.of_int (Rng.bits53 rng) *. 0x1.0p-53 < p))

let sequential ?(start = 0) ?(stride = 64) ~name () =
  let cursor = ref start in
  make ~name (fun () ->
      let e = Stream_trace.pack !cursor false in
      cursor := !cursor + stride;
      e)

let cyclic ?(start = 0) ?(stride = 64) ~name ~length () =
  if length <= 0 then invalid_arg "Gen.cyclic: length <= 0";
  let i = ref 0 in
  make ~name (fun () ->
      let e = Stream_trace.pack (start + (!i * stride)) false in
      i := (!i + 1) mod length;
      e)

let uniform_random ?(base = 0) ~name ~rng ~footprint () =
  if footprint <= 8 then invalid_arg "Gen.uniform_random: footprint too small";
  let words = footprint / 8 in
  make ~name (fun () -> Stream_trace.pack (base + (8 * Rng.int rng ~bound:words)) false)
