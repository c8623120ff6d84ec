module Rng = Nmcache_numerics.Rng

let cycle ~name ~rng ~dwell phases =
  if phases = [] then invalid_arg "Phased.cycle: no phases";
  if dwell < 1 then invalid_arg "Phased.cycle: dwell < 1";
  let phases = Array.of_list phases in
  let current = ref 0 in
  let remaining = ref 0 in
  let draw_dwell () =
    (* geometric dwell with the requested mean keeps phase boundaries
       unpredictable but reproducible *)
    1 + Rng.geometric rng ~p:(1.0 /. float_of_int dwell)
  in
  Gen.make ~name (fun () ->
      if !remaining <= 0 then begin
        current := (!current + 1) mod Array.length phases;
        remaining := draw_dwell ()
      end;
      decr remaining;
      Gen.next_packed phases.(!current))

let spec_phased ~seed () =
  let rng = Rng.create ~seed in
  let phase variant s = Suites.spec_like ~variant ~seed:s () in
  cycle ~name:"spec2000-phased" ~rng:(Rng.split rng) ~dwell:200_000
    [
      phase Suites.Gcc (Rng.bits64 rng);
      phase Suites.Mcf (Rng.bits64 rng);
      phase Suites.Art (Rng.bits64 rng);
    ]
