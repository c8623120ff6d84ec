(** The 6T SRAM cell.

    The storage element whose replication makes the memory-cell array
    the dominant leakage component of a cache.  Device widths follow the
    technology's Tox-scaling rule: thicker oxide ⇒ longer channel ⇒
    proportionally wider cell transistors (stability), so the cell
    grows in both dimensions — the area effect §2 of the paper insists
    on. *)

type t = {
  access : Nmcache_device.Mosfet.t;   (** access (pass) transistor *)
  pulldown : Nmcache_device.Mosfet.t; (** pull-down NMOS *)
  pullup : Nmcache_device.Mosfet.t;   (** pull-up PMOS *)
  width : float;        (** cell layout width (bitline pitch) [m] *)
  height : float;       (** cell layout height (wordline pitch) [m] *)
}

val make : Nmcache_device.Knob_state.t -> t
(** Builds a cell, and its three devices, on the device state of its
    knob (which {!Nmcache_device.Knob_state.make} validated). *)

val access_ratio : float
(** Access-transistor width in units of drawn L (1.5). *)

val pulldown_ratio : float
(** Pull-down width in units of drawn L (2.2). *)

val pullup_ratio : float
(** Pull-up width in units of drawn L (1.1). *)

val area : t -> float
(** width · height [m²]; ∝ (Tox/Tox_ref)². *)

val leakage_power : Nmcache_device.Tech.t -> t -> float
(** Total standby leakage of one cell [W]: subthreshold paths (one
    access, one pull-down, one pull-up device off) + gate tunnelling of
    the two conducting devices + residual off-state tunnelling +
    junction terms.  Exponentially decreasing in both knobs. *)

val read_current : Nmcache_device.Tech.t -> t -> float
(** Cell read current available to discharge the bitline [A]: the
    series access/pull-down path, ≈ half the access device's
    saturation current. *)

val gate_load : Nmcache_device.Tech.t -> t -> float
(** Wordline loading per cell: gate capacitance of both access
    transistors [F]. *)

val drain_load : Nmcache_device.Tech.t -> t -> float
(** Bitline loading per cell: drain capacitance of one access
    transistor [F]. *)
