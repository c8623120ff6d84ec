module Units = Nmcache_physics.Units

type kind = Array_sense | Decoder | Addr_drivers | Data_drivers

let all_kinds = [ Array_sense; Decoder; Addr_drivers; Data_drivers ]

let kind_name = function
  | Array_sense -> "array+sense"
  | Decoder -> "decoder"
  | Addr_drivers -> "addr-drivers"
  | Data_drivers -> "data-drivers"

let kind_of_name s =
  match String.lowercase_ascii s with
  | "array+sense" | "array" -> Some Array_sense
  | "decoder" -> Some Decoder
  | "addr-drivers" | "addr" -> Some Addr_drivers
  | "data-drivers" | "data" -> Some Data_drivers
  | _ -> None

let kind_index = function
  | Array_sense -> 0
  | Decoder -> 1
  | Addr_drivers -> 2
  | Data_drivers -> 3

type summary = {
  delay : float;
  leak_w : float;
  dyn_energy : float;
  area : float;
}

let zero_summary = { delay = 0.0; leak_w = 0.0; dyn_energy = 0.0; area = 0.0 }

let add_summary a b =
  {
    delay = a.delay +. b.delay;
    leak_w = a.leak_w +. b.leak_w;
    dyn_energy = a.dyn_energy +. b.dyn_energy;
    area = a.area +. b.area;
  }

type knob = {
  vth : float;
  tox : float;
}

let knob ~vth ~tox = { vth; tox }

let pp_knob fmt k =
  Format.fprintf fmt "(%.2fV, %.1fA)" k.vth (Units.to_angstrom k.tox)

type assignment = {
  array : knob;
  decoder : knob;
  addr : knob;
  data : knob;
}

let uniform k = { array = k; decoder = k; addr = k; data = k }
let split ~cell ~periphery =
  { array = cell; decoder = periphery; addr = periphery; data = periphery }

let get a = function
  | Array_sense -> a.array
  | Decoder -> a.decoder
  | Addr_drivers -> a.addr
  | Data_drivers -> a.data

let set a kind k =
  match kind with
  | Array_sense -> { a with array = k }
  | Decoder -> { a with decoder = k }
  | Addr_drivers -> { a with addr = k }
  | Data_drivers -> { a with data = k }

let pp_assignment fmt a =
  Format.fprintf fmt "@[array=%a dec=%a addr=%a data=%a@]" pp_knob a.array pp_knob
    a.decoder pp_knob a.addr pp_knob a.data
