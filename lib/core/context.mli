(** Shared experiment context: the technology, cache shapes, workloads,
    grids and memoised characterisations every experiment draws on.

    Experiments take an explicit context so tests can run them on
    reduced settings (shorter traces, coarser grids) without touching
    globals. *)

type t = {
  tech : Nmcache_device.Tech.t;
  l1_size : int;            (** default L1 capacity (16 KB) *)
  l1_assoc : int;
  l2_size : int;            (** default L2 capacity (1 MB) *)
  l2_assoc : int;
  block_bytes : int;
  l2_output_bits : int;
  workloads : string list;  (** aggregated benchmark stand-ins *)
  seed : int64;
  n_sim : int;              (** trace length per simulation *)
  grid : Nmcache_opt.Grid.t;        (** full design grid *)
  coarse_grid : Nmcache_opt.Grid.t; (** for the tuple enumeration *)
  mem : Nmcache_energy.Main_memory.t;
}

val default : unit -> t
(** bptm65, 16 KB/4-way L1, 1 MB/8-way L2, 64 B blocks, headline
    workloads, 2 M-access traces, seed 42. *)

val quick : unit -> t
(** Reduced setting for tests: 400 k-access traces, coarse grids. *)

val numerics_tag : string
(** The fitter and optimiser generation, last in {!fingerprint}.  It
    changes with every numerical change that can move a fitted model or
    an optimum. *)

val fingerprint : t -> string
(** A stable, human-readable digest of every field that can change an
    experiment's numbers (tech corner, geometries, workloads, seed,
    trace length, grid shapes, memory model,
    {!Nmcache_workload.Registry.generator_tag}, {!numerics_tag}).
    {!Experiments.task} folds it into checkpoint slot keys and
    [Service] into its miss-curve store keys, so a journal or stored
    curve recorded under one context or numerics generation is never
    served into a run with different inputs.  Stored fits and optima
    use the narrower {!fit_key} and {!search_key}. *)

val fit_key : t -> Nmcache_geometry.Config.t -> string
(** What a fitted model depends on: the technology's name, temperature
    and supply, the configuration ([Config.describe] and its output
    bits) and {!numerics_tag}, last.  [Service] keys stored fits by it,
    so a store written under other workloads, seeds or trace lengths
    still serves them. *)

val search_key : t -> grid:Nmcache_opt.Grid.t -> string
(** What a search's answer depends on besides its cache and request:
    the technology corner, the grid's exact values (an MD5 of their
    hex floats) and {!numerics_tag}, last.  [Service] keys stored
    optima by it and the request's parameters, which name the
    configuration. *)

val l1_config : t -> ?size:int -> unit -> Nmcache_geometry.Config.t
val l2_config : t -> ?size:int -> unit -> Nmcache_geometry.Config.t

val fitted : t -> Nmcache_geometry.Config.t -> Nmcache_fit.Fitted_cache.t
(** Characterise-and-fit, memoised per (tech, config) within the
    process. *)

val tables :
  t -> Nmcache_geometry.Config.t -> grid:Nmcache_opt.Grid.t -> Nmcache_opt.Scheme.tables
(** {!fitted}'s models tabulated over [grid] ({!Nmcache_opt.Scheme.tables}),
    memoised per (tech, config, grid values) within the process: every
    search over one cache and grid reads one table. *)

val l1_sizes : int array
(** 4 K … 64 K. *)

val l2_sizes : int array
(** 256 K … 8 M. *)

val reference_knob : t -> Nmcache_geometry.Component.knob
(** The default pair (0.30 V, 12 Å) components start from. *)

val clear_memo : unit -> unit
(** Drop the {!fitted} and {!tables} memos. *)
