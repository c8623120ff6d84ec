module Rng = Nmcache_numerics.Rng
module Deadline = Nmcache_engine.Deadline
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
      (* [Rng.float rng *. total], without the boxed float return *)
      let u = Float.of_int (Rng.bits53 rng) *. 0x1.0p-53 *. total in
      let i = ref 0 in
      while !i < last && not (u < bounds.(!i)) do
        incr i
      done;
      gens.(!i).next ())

let with_write_fraction ~rng ~p t =
  let p = Float.min 1.0 (Float.max 0.0 p) in
  let next = t.next in
  make ~name:t.name (fun () ->
      let e = next () in
      Stream_trace.pack (Stream_trace.addr e) (Rng.bernoulli rng ~p))

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
