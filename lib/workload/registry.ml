type entry = {
  name : string;
  description : string;
  build : int64 -> Gen.t;
}

let all =
  [
    {
      name = "spec2000-mix";
      description = "SPEC2000-like blend: hot loop set, Zipf heap, stream, cold chase";
      build = (fun seed -> Suites.spec_like ~variant:Suites.Mix ~seed ());
    };
    {
      name = "spec2000-gcc";
      description = "control-heavy SPECint-like: small working set";
      build = (fun seed -> Suites.spec_like ~variant:Suites.Gcc ~seed ());
    };
    {
      name = "spec2000-mcf";
      description = "pointer-chasing SPECint-like: large sparse footprint";
      build = (fun seed -> Suites.spec_like ~variant:Suites.Mcf ~seed ());
    };
    {
      name = "spec2000-art";
      description = "streaming SPECfp-like";
      build = (fun seed -> Suites.spec_like ~variant:Suites.Art ~seed ());
    };
    {
      name = "specweb";
      description = "SPECWEB-like: Zipf-popular objects scanned sequentially";
      build = (fun seed -> Suites.specweb_like ~seed ());
    };
    {
      name = "tpcc";
      description = "TPC-C-like: B-tree walks over a large footprint + log writes";
      build = (fun seed -> Suites.tpcc_like ~seed ());
    };
    {
      name = "spec2000-phased";
      description = "phase-switching SPEC-like composite (gcc/mcf/art phases)";
      build = (fun seed -> Phased.spec_phased ~seed ());
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) all
let names = List.map (fun e -> e.name) all
let default_seed = 42L

(* Names the trace generation.  Change it with any change to a generator,
   or to what one draws through ([Rng], [Zipf]), that moves a trace, so
   memo keys, checkpoint slots and stores written before it miss and
   recompute rather than serve the old traces' numbers. *)
let generator_tag = "ri1"

let build ?(seed = default_seed) name =
  match find name with
  | Some e -> e.build seed
  | None -> invalid_arg ("Registry.build: unknown workload " ^ name)

let headline = [ "spec2000-mix"; "specweb"; "tpcc" ]
