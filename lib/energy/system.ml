module Component = Nmcache_geometry.Component
module Fitted_cache = Nmcache_fit.Fitted_cache

type t = {
  l1 : Fitted_cache.t;
  l2 : Fitted_cache.t;
  mem : Main_memory.t;
  m1 : float;
  m2 : float;
}

let make ~l1 ~l2 ~mem ~m1 ~m2 =
  let check name m =
    if m < 0.0 || m > 1.0 then invalid_arg ("System.make: bad miss rate " ^ name)
  in
  check "m1" m1;
  check "m2" m2;
  { l1; l2; mem; m1; m2 }

let l1 t = t.l1
let l2 t = t.l2
let mem t = t.mem
let m1 t = t.m1
let m2 t = t.m2

type group = L1_cell | L1_periph | L2_cell | L2_periph

let groups = [ L1_cell; L1_periph; L2_cell; L2_periph ]

let group_index = function L1_cell -> 0 | L1_periph -> 1 | L2_cell -> 2 | L2_periph -> 3

let periph_kinds = [ Component.Decoder; Component.Addr_drivers; Component.Data_drivers ]

type group_eval = {
  delay : float;
  leak_w : float;
  dyn_energy : float;
}

let sum_kinds fitted kinds knob =
  List.fold_left
    (fun acc kind ->
      {
        delay = acc.delay +. Fitted_cache.delay_of fitted kind knob;
        leak_w = acc.leak_w +. Fitted_cache.leak_of fitted kind knob;
        dyn_energy = acc.dyn_energy +. Fitted_cache.energy_of fitted kind knob;
      })
    { delay = 0.0; leak_w = 0.0; dyn_energy = 0.0 }
    kinds

let eval_group t group knob =
  match group with
  | L1_cell -> sum_kinds t.l1 [ Component.Array_sense ] knob
  | L1_periph -> sum_kinds t.l1 periph_kinds knob
  | L2_cell -> sum_kinds t.l2 [ Component.Array_sense ] knob
  | L2_periph -> sum_kinds t.l2 periph_kinds knob

type eval = {
  amat : float;
  energy_per_access : float;
  t_l1 : float;
  t_l2 : float;
  leak_w : float;
  dyn_energy : float;
}

let evaluate t pick =
  let g group = eval_group t group (pick group) in
  let l1c = g L1_cell and l1p = g L1_periph and l2c = g L2_cell and l2p = g L2_periph in
  let t_l1 = l1c.delay +. l1p.delay in
  let t_l2 = l2c.delay +. l2p.delay in
  let amat = Amat.two_level ~t_l1 ~t_l2 ~t_mem:t.mem.Main_memory.t_access ~m1:t.m1 ~m2:t.m2 in
  let e_l1 = l1c.dyn_energy +. l1p.dyn_energy in
  let e_l2 = l2c.dyn_energy +. l2p.dyn_energy in
  let dyn_energy =
    e_l1 +. (t.m1 *. (e_l2 +. (t.m2 *. t.mem.Main_memory.e_access)))
  in
  let leak_w =
    l1c.leak_w +. l1p.leak_w +. l2c.leak_w +. l2p.leak_w +. t.mem.Main_memory.standby_w
  in
  { amat; energy_per_access = dyn_energy +. (leak_w *. amat); t_l1; t_l2; leak_w; dyn_energy }

let evaluate_uniform t knob = evaluate t (fun _ -> knob)
