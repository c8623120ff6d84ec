module Rng = Nmcache_numerics.Rng
module Stream_trace = Nmcache_cachesim.Stream_trace

type spec_variant = Mix | Gcc | Mcf | Art

let spec_variant_name = function
  | Mix -> "mix"
  | Gcc -> "gcc"
  | Mcf -> "mcf"
  | Art -> "art"

let kb n = n * 1024
let mb n = n * 1024 * 1024

(* Region bases keep the components disjoint. *)
let hot_base = 0x1000_0000
let warm_base = 0x4000_0000
let ws2_base = 0x6000_0000
let ws3_base = 0xc000_0000
let stream_base = 0x8000_0000
let cold_base = 0x1_0000_0000

type spec_params = {
  hot_bytes : int;
  hot_weight : float;
  warm_bytes : int;
  warm_zipf : float;
  warm_weight : float;
  ws2_bytes : int;          (* mid-scale working set *)
  ws2_weight : float;
  ws3_bytes : int;          (* outer working set *)
  ws3_weight : float;
  stream_bytes : int;
  stream_weight : float;
  cold_bytes : int;
  cold_zipf : float;
  cold_weight : float;
  write_fraction : float;
}

type spec_runs = {
  hot_continue : float;
  warm_run : int;
  cold_run : int;
}

let spec_runs = { hot_continue = 0.85; warm_run = 8; cold_run = 6 }

let spec_params = function
  | Mix ->
    {
      hot_bytes = kb 4;
      hot_weight = 0.52;
      warm_bytes = kb 256;
      warm_zipf = 0.80;
      warm_weight = 0.20;
      ws2_bytes = kb 768;
      ws2_weight = 0.05;
      ws3_bytes = mb 3;
      ws3_weight = 0.05;
      stream_bytes = kb 512;
      stream_weight = 0.04;
      cold_bytes = mb 128;
      cold_zipf = 1.00;
      cold_weight = 0.14;
      write_fraction = 0.30;
    }
  | Gcc ->
    {
      hot_bytes = kb 4;
      hot_weight = 0.58;
      warm_bytes = kb 192;
      warm_zipf = 0.70;
      warm_weight = 0.20;
      ws2_bytes = kb 512;
      ws2_weight = 0.05;
      ws3_bytes = mb 2;
      ws3_weight = 0.04;
      stream_bytes = kb 512;
      stream_weight = 0.04;
      cold_bytes = mb 32;
      cold_zipf = 1.00;
      cold_weight = 0.09;
      write_fraction = 0.32;
    }
  | Mcf ->
    {
      hot_bytes = kb 4;
      hot_weight = 0.40;
      warm_bytes = mb 1;
      warm_zipf = 0.75;
      warm_weight = 0.24;
      ws2_bytes = mb 2;
      ws2_weight = 0.05;
      ws3_bytes = mb 6;
      ws3_weight = 0.04;
      stream_bytes = kb 512;
      stream_weight = 0.05;
      cold_bytes = mb 256;
      cold_zipf = 0.70;
      cold_weight = 0.22;
      write_fraction = 0.22;
    }
  | Art ->
    {
      hot_bytes = kb 4;
      hot_weight = 0.38;
      warm_bytes = kb 256;
      warm_zipf = 0.70;
      warm_weight = 0.12;
      ws2_bytes = mb 2;
      ws2_weight = 0.04;
      ws3_bytes = mb 6;
      ws3_weight = 0.02;
      stream_bytes = mb 1;
      stream_weight = 0.38;
      cold_bytes = mb 32;
      cold_zipf = 0.80;
      cold_weight = 0.06;
      write_fraction = 0.20;
    }

let spec_like ?(variant = Mix) ~seed () =
  let p = spec_params variant in
  let rng = Rng.create ~seed in
  let part name f = Gen.make ~name f in
  let runs = spec_runs in
  let hot =
    part "hot"
      (Regions.locality_walker ~rng:(Rng.split rng) ~base:hot_base ~bytes:p.hot_bytes
         ~p_continue:runs.hot_continue ())
  in
  let warm =
    part "warm"
      (Regions.zipf_blocks ~rng:(Rng.split rng) ~base:warm_base ~bytes:p.warm_bytes
         ~block:64 ~s:p.warm_zipf ~run:runs.warm_run ())
  in
  let ws2 =
    part "ws2"
      (Regions.zipf_blocks ~rng:(Rng.split rng) ~base:ws2_base ~bytes:p.ws2_bytes
         ~block:64 ~s:0.8 ~run:runs.warm_run ())
  in
  let ws3 =
    part "ws3"
      (Regions.zipf_blocks ~rng:(Rng.split rng) ~base:ws3_base ~bytes:p.ws3_bytes
         ~block:64 ~s:0.8 ~run:runs.warm_run ())
  in
  let streamg = part "stream" (Regions.stream ~base:stream_base ~bytes:p.stream_bytes ~stride:8 ()) in
  let cold =
    part "cold"
      (Regions.zipf_blocks ~rng:(Rng.split rng) ~base:cold_base ~bytes:p.cold_bytes
         ~block:64 ~s:p.cold_zipf ~run:runs.cold_run ())
  in
  let name = "spec2000-" ^ spec_variant_name variant in
  let mixed =
    Gen.mix ~name ~rng:(Rng.split rng)
      [
        (p.hot_weight, hot);
        (p.warm_weight, warm);
        (p.ws2_weight, ws2);
        (p.ws3_weight, ws3);
        (p.stream_weight, streamg);
        (p.cold_weight, cold);
      ]
  in
  Gen.with_write_fraction ~rng:(Rng.split rng) ~p:p.write_fraction mixed

let specweb_like ~seed () =
  let rng = Rng.create ~seed in
  let n_objects = 1 lsl 17 in
  let slot = kb 16 in
  let zipf = Nmcache_numerics.Zipf.create ~n:n_objects ~s:0.9 in
  let obj_rng = Rng.split rng in
  let size_rng = Rng.split rng in
  let remaining = ref 0 in
  let cursor = ref 0 in
  let objects =
    Gen.make ~name:"objects" (fun () ->
        if !remaining = 0 then begin
          let rank = Nmcache_numerics.Zipf.sample zipf obj_rng in
          let o = rank * 2654435761 mod n_objects in
          (* object size: 512 B minimum, geometric tail, 16 KB cap *)
          let size =
            min (slot - 64) (512 + (512 * Rng.geometric size_rng ~p:0.18))
          in
          cursor := warm_base + (o * slot);
          remaining := size / 8
        end;
        let e = Stream_trace.pack !cursor false in
        cursor := !cursor + 8;
        decr remaining;
        e)
  in
  let metadata =
    Gen.make ~name:"metadata"
      (Regions.locality_walker ~rng:(Rng.split rng) ~base:hot_base ~bytes:(kb 12)
         ~p_continue:0.75 ())
  in
  let mixed =
    Gen.mix ~name:"specweb" ~rng:(Rng.split rng) [ (0.52, objects); (0.48, metadata) ]
  in
  Gen.with_write_fraction ~rng:(Rng.split rng) ~p:0.06 mixed

let tpcc_like ~seed () =
  let rng = Rng.create ~seed in
  let root =
    Gen.make ~name:"btree-root"
      (Regions.locality_walker ~rng:(Rng.split rng) ~base:hot_base ~bytes:(kb 12)
         ~p_continue:0.7 ())
  in
  let internal =
    Gen.make ~name:"btree-internal"
      (Regions.zipf_blocks ~rng:(Rng.split rng) ~base:warm_base ~bytes:(kb 768) ~block:64
         ~s:0.55 ~run:12 ())
  in
  let leaf =
    Gen.make ~name:"btree-leaf"
      (Regions.zipf_blocks ~rng:(Rng.split rng) ~base:cold_base ~bytes:(mb 512) ~block:64
         ~s:0.65 ~run:12 ())
  in
  let log =
    let inner = Regions.stream ~base:stream_base ~bytes:(mb 64) ~stride:8 () in
    Gen.make ~name:"log" (fun () -> Stream_trace.pack (Stream_trace.addr (inner ())) true)
  in
  Gen.mix ~name:"tpcc" ~rng:(Rng.split rng)
    [ (0.35, root); (0.25, internal); (0.28, leaf); (0.12, log) ]
  |> fun mixed ->
  (* reads/writes: log is all writes; give the rest a 25% store mix,
     drawn as [Rng.bernoulli wrng ~p:0.25] written out *)
  let wrng = Rng.split rng in
  Gen.make ~name:"tpcc" (fun () ->
      let e = Gen.next_packed mixed in
      if Stream_trace.is_write e then e
      else
        Stream_trace.pack (Stream_trace.addr e)
          (Float.of_int (Rng.bits53 wrng) *. 0x1.0p-53 < 0.25))
