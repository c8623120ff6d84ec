(** The cache circuit model: configuration + organisation ↦ the paper's
    four components, each evaluated at an arbitrary (Vth, Tox) knob.

    This is the reproduction's substitute for the paper's re-designed
    cache netlists + HSPICE: {!evaluate_component} plays the role of a
    circuit simulation of one component at one knob assignment, and
    {!characterize} sweeps the knob grid to produce the samples the
    compact models of {!Nmcache_fit} are fitted to.

    Independence convention (paper §3): each component's delay and
    leakage are treated as functions of {e its own} knob only.  Where a
    component's load physically depends on a neighbour (the decoder
    drives wordlines loaded by array cells; bus lengths depend on array
    area), the neighbour is frozen at the model's {e reference knob}, so
    component models stay independent exactly as the paper assumes. *)

type t

val make :
  ?reference:Component.knob -> ?org:Org.t -> Nmcache_device.Tech.t -> Config.t -> t
(** [make tech config] builds the model.  [org] defaults to
    {!best_org}'s choice; [reference] defaults to (0.30 V, 12 Å).  It
    computes once what no evaluated knob changes: the technology's
    knob-independent device factors, the reference-knob cell, the
    reference wordline load the decoder drives and the bus drivers'
    wire length. *)

val tech : t -> Nmcache_device.Tech.t
val config : t -> Config.t
val org : t -> Org.t
val reference : t -> Component.knob

val floorplan : t -> float * float
(** (width, height) of the array floorplan in metres, at the reference
    knob (cell dimensions scale with Tox). *)

val evaluate_component : t -> Component.kind -> Component.knob -> Component.summary
(** Delay / leakage / dynamic energy / area of one component at one
    knob, every device of it built on one device state of the knob
    ({!Nmcache_device.Knob_state}).  Raises [Invalid_argument] with
    {!Nmcache_device.Tech.check_knobs}'s message if the knob is outside
    the technology's legal range. *)

type array_timing = {
  wordline_r : float;     (** wire resistance of one subarray wordline [Ω] *)
  wordline_c : float;     (** its capacitance: cell gate loads + wire [F] *)
  wordline_delay : float; (** 0.38 · [wordline_r] · [wordline_c] [s] *)
  bitline_c : float;      (** one bitline: cell drain loads + wire [F] *)
  sense_c_in : float;     (** the sense amplifier's input capacitance [F] *)
  sense_swing : float;    (** bitline swing the sense amplifier resolves [V] *)
  read_current : float;   (** the accessed cell's read current [A] *)
  bitline_delay : float;
      (** ([bitline_c] + [sense_c_in]) · [sense_swing] / [read_current]:
          the cell current discharging the whole line, wire resistance
          left out [s] *)
  sense_delay : float;    (** the sense amplifier's regeneration delay [s] *)
}
(** The closed forms behind the {!Component.Array_sense} delay.  That
    delay is exactly [wordline_delay +. bitline_delay +. sense_delay]. *)

val array_timing : t -> Component.knob -> array_timing
(** The quantities {!evaluate_component} combines into the array's
    delay at this knob, for checking the closed forms against a
    detailed circuit.  Raises [Invalid_argument] if the knob is outside
    the technology's legal range. *)

type report = {
  components : (Component.kind * Component.summary) list;
      (** in {!Component.all_kinds} order *)
  access_time : float;   (** Σ component delays [s] *)
  leak_w : float;        (** Σ component leakage [W] *)
  dyn_read_energy : float; (** Σ dynamic energy per read access [J] *)
  area : float;          (** Σ component area [m²] *)
}

val evaluate : t -> Component.assignment -> report
(** Full-cache evaluation under a per-component knob assignment. *)

val characterize :
  t ->
  Component.kind ->
  vths:float array ->
  toxs:float array ->
  (Component.knob * Component.summary) array
(** The "HSPICE sweep": evaluate the component over the cross product of
    the given knob grids (row-major, vth outer). *)

val best_org : ?reference:Component.knob -> Nmcache_device.Tech.t -> Config.t -> Org.t
(** Searches {!Org.candidates} for the partitioning minimising
    access time with a mild area penalty, evaluated at the reference
    knob. *)
