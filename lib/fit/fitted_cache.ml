module Component = Nmcache_geometry.Component
module Cache_model = Nmcache_geometry.Cache_model
module Tech = Nmcache_device.Tech
module Minimize = Nmcache_numerics.Minimize

type component_model = {
  kind : Component.kind;
  leak : Model.leak;
  leak_quality : Model.quality;
  delay : Model.delay;
  delay_quality : Model.quality;
  energy : Model.energy;
  energy_quality : Model.quality;
}

type t = {
  circuit : Cache_model.t;
  models : component_model array; (* indexed by Component.kind_index *)
  vths : float array; (* the characterisation grid; samples are *)
  toxs : float array; (* recomputed from it rather than retained *)
  vth_range : float * float; (* the (Vth, Tox) box the fits saw; *)
  tox_range : float * float; (* evaluation outside it is a fault   *)
}

let characterize_and_fit ?(vth_steps = 6) ?(tox_steps = 4) ?vth_range ?tox_range
    circuit =
  let tech = Cache_model.tech circuit in
  let vth_lo, vth_hi =
    Option.value vth_range ~default:(tech.Tech.vth_min, tech.Tech.vth_max)
  in
  let tox_lo, tox_hi =
    Option.value tox_range ~default:(tech.Tech.tox_min, tech.Tech.tox_max)
  in
  if vth_hi <= vth_lo || tox_hi <= tox_lo then
    invalid_arg "Fitted_cache.characterize_and_fit: empty knob range";
  let vths = Minimize.linspace ~lo:vth_lo ~hi:vth_hi ~steps:vth_steps in
  let toxs = Minimize.linspace ~lo:tox_lo ~hi:tox_hi ~steps:tox_steps in
  let fit_kind kind =
    let kind_name = Component.kind_name kind in
    Nmcache_engine.Span.with_span
      ~attrs:[ ("component", Nmcache_engine.Json.String kind_name) ]
      ("fit:" ^ kind_name)
      (fun () ->
        let samples = Cache_model.characterize circuit kind ~vths ~toxs in
        let leak, leak_quality = Fitter.fit_leak samples in
        let delay, delay_quality = Fitter.fit_delay samples in
        let energy, energy_quality = Fitter.fit_energy samples in
        { kind; leak; leak_quality; delay; delay_quality; energy; energy_quality })
  in
  {
    circuit;
    models = Array.of_list (List.map fit_kind Component.all_kinds);
    vths;
    toxs;
    vth_range = (vth_lo, vth_hi);
    tox_range = (tox_lo, tox_hi);
  }

let circuit_model t = t.circuit
let component t kind = t.models.(Component.kind_index kind)
let components t = Array.to_list t.models
(* characterisation is deterministic, so these are the very samples the
   fit saw; keeping them would make every stored model ~8× larger *)
let samples t kind = Cache_model.characterize t.circuit kind ~vths:t.vths ~toxs:t.toxs
let vth_range t = t.vth_range
let tox_range t = t.tox_range

(* Compact models are pure extrapolation outside the characterised box
   — exp terms explode silently — so evaluation there is a typed fault,
   not a number.  The epsilon absorbs grid-endpoint float drift. *)
let check_domain t (k : Component.knob) =
  let inside (lo, hi) v =
    let eps = 1e-6 *. (hi -. lo) in
    v >= lo -. eps && v <= hi +. eps
  in
  if not (inside t.vth_range k.Component.vth && inside t.tox_range k.Component.tox)
  then begin
    let vlo, vhi = t.vth_range and tlo, thi = t.tox_range in
    Nmcache_engine.Fault.error ~kind:Nmcache_engine.Fault.Out_of_domain
      ~stage:"model.eval"
      (Printf.sprintf
         "knob (vth=%.4f V, tox=%.2f A) outside fitted range (%.4f-%.4f V, %.2f-%.2f A)"
         k.Component.vth
         (Nmcache_physics.Units.to_angstrom k.Component.tox)
         vlo vhi
         (Nmcache_physics.Units.to_angstrom tlo)
         (Nmcache_physics.Units.to_angstrom thi))
  end

let leak_of t kind (k : Component.knob) =
  check_domain t k;
  let m = component t kind in
  Model.eval_leak m.leak ~vth:k.Component.vth ~tox:k.Component.tox

let delay_of t kind (k : Component.knob) =
  check_domain t k;
  let m = component t kind in
  Model.eval_delay m.delay ~vth:k.Component.vth ~tox:k.Component.tox

let energy_of t kind (k : Component.knob) =
  check_domain t k;
  let m = component t kind in
  Model.eval_energy m.energy ~tox:k.Component.tox

type estimate = {
  access_time : float;
  leak_w : float;
  dyn_energy : float;
}

let eval t (a : Component.assignment) =
  List.fold_left
    (fun acc kind ->
      let k = Component.get a kind in
      {
        access_time = acc.access_time +. delay_of t kind k;
        leak_w = acc.leak_w +. leak_of t kind k;
        dyn_energy = acc.dyn_energy +. energy_of t kind k;
      })
    { access_time = 0.0; leak_w = 0.0; dyn_energy = 0.0 }
    Component.all_kinds

let exact t a = Cache_model.evaluate t.circuit a

let worst_quality t =
  Array.fold_left
    (fun acc m ->
      let pick (q : Model.quality) (acc : Model.quality) =
        if q.Model.r2 < acc.Model.r2 then q else acc
      in
      pick m.leak_quality (pick m.delay_quality acc))
    { Model.r2 = 1.0; max_rel = 0.0; rms_rel = 0.0 }
    t.models
