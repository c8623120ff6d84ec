(** A small transient circuit simulator.

    Fixed-timestep nodal analysis with trapezoidal integration over
    linear R/C networks driven by (time-varying) current sources and
    Norton-equivalent voltage drives.  This is the closest thing in the
    repository to an actual SPICE engine.  No program path runs it: the
    tests use it as the detailed reference for the array's wordline
    (distributed RC) and bitline (current-source discharge) closed
    forms, driving it with the R, C and currents that
    [Nmcache_geometry.Cache_model.array_timing] reports.

    The network is linear, so each step solves the constant system
    (C/Δt + G/2)·v' = (C/Δt − G/2)·v + (i + i')/2 with a single
    pre-computed factorisation (here: explicit inverse — the matrices
    are small). *)

type t
(** A circuit under construction (mutable). *)

val create : nodes:int -> t
(** [create ~nodes] makes a circuit with [nodes] floating nodes
    (node indices 0 .. nodes−1) plus the implicit ground.  Raises
    [Invalid_argument] if [nodes < 1]. *)

val add_resistor : t -> a:int -> b:int option -> ohms:float -> unit
(** Resistor between node [a] and node [b] ([None] = ground).  Raises
    [Invalid_argument] on non-positive resistance or bad indices. *)

val add_capacitor : t -> a:int -> farads:float -> unit
(** Grounded capacitor at node [a] (node-to-node capacitors are not
    needed for the cache structures).  Raises [Invalid_argument] on
    non-positive capacitance. *)

val add_current_source : t -> a:int -> amps:(float -> float) -> unit
(** Current injected {e into} node [a] as a function of time (negative
    values pull current out — e.g. a discharging cell). *)

val add_voltage_drive : t -> a:int -> volts:(float -> float) -> r_source:float -> unit
(** Norton-equivalent drive: an ideal source [volts t] behind
    [r_source] into node [a].  Raises [Invalid_argument] on
    non-positive source resistance. *)

type waveform = {
  dt : float;
  samples : float array array;  (** [samples.(step).(node)] in volts *)
}

val simulate : t -> v0:float array -> dt:float -> steps:int -> waveform
(** Integrate from initial node voltages [v0].  Raises
    [Invalid_argument] on size mismatch, non-positive [dt]/[steps], or
    {!Nmcache_numerics.Linsolve.Singular} if some node has no
    capacitance or conductance path (ill-posed). *)

val node_voltage : waveform -> node:int -> step:int -> float

val crossing_time :
  waveform -> node:int -> threshold:float -> rising:bool -> float option
(** First time the node's waveform crosses [threshold] in the given
    direction (linear interpolation between samples); [None] if it
    never does. *)
