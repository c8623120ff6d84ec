module Units = Nmcache_physics.Units

type channel = Nmos | Pmos

type t = {
  channel : channel;
  w : float;
  knob : Knob_state.t;
}

let make knob ~channel ~w =
  if w <= 0.0 then invalid_arg "Mosfet.make: w <= 0";
  { channel; w; knob }

let nmos tech ~w ~vth ~tox = make (Knob_state.make tech ~vth ~tox) ~channel:Nmos ~w
let pmos tech ~w ~vth ~tox = make (Knob_state.make tech ~vth ~tox) ~channel:Pmos ~w

let pp fmt d =
  Format.fprintf fmt "%s(W=%.0fnm, Vth0=%.2fV, Tox=%.1fA)"
    (match d.channel with Nmos -> "nmos" | Pmos -> "pmos")
    (Units.to_nm d.w) d.knob.Knob_state.vth
    (Units.to_angstrom d.knob.Knob_state.tox)
