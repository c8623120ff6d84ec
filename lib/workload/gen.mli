(** Address-stream generators.

    A generator is a named, stateful producer of an infinite access
    stream.  All randomness comes from the generator's own seeded
    {!Nmcache_numerics.Rng} stream, so a given (name, seed) pair always
    replays the identical trace.

    Accesses travel as packed entries — an immediate int built by
    {!Nmcache_cachesim.Stream_trace.pack} and read back with
    {!Nmcache_cachesim.Stream_trace.addr} and
    {!Nmcache_cachesim.Stream_trace.is_write} — so the built-in
    generators, {!iter}, {!fill} and {!walk} allocate nothing per
    access.  {!next} and {!take} box each access as an {!Access.t}. *)

type t

val make : name:string -> (unit -> int) -> t
(** [make ~name next]: [next ()] returns the stream's next access as a
    packed entry. *)

val name : t -> string

val next_packed : t -> int
(** The next access as a packed entry. *)

val next : t -> Access.t
(** The next access, boxed. *)

val take : t -> int -> Access.t array
(** The next [n] accesses, boxed.  Raises [Invalid_argument] if
    [n < 0]. *)

val iter : stage:string -> t -> int -> (int -> bool -> unit) -> unit
(** [iter ~stage t n f] calls [f addr write] on each of the next [n]
    accesses without materialising or boxing them, and polls
    {!Nmcache_engine.Deadline.poll} [~stage] every 4096 accesses.  It
    is the per-access reference the chunked {!walk} is held to. *)

val fill : t -> int array -> int -> int -> unit
(** [fill t entries pos len] draws the next [len] accesses into
    [entries.(pos) .. entries.(pos + len - 1)] as packed entries, in
    order: the same entries [len] calls of {!next_packed} return.
    Raises [Invalid_argument] if the range is not inside [entries]. *)

(** {1 Fan-out walks} *)

val warmup_fraction : float
(** Fraction of a walk fed as an unmeasured warm-up prefix (0.5). *)

type consumer = {
  feed : int array -> int -> int -> unit;
      (** [feed entries pos len]: the accesses
          [entries.(pos) .. entries.(pos + len - 1)], packed entries
          ({!Nmcache_cachesim.Stream_trace.pack}) in trace order.  The
          array is the walk's buffer, overwritten by the next chunk:
          a consumer must not keep it. *)
  measure : unit -> unit;
      (** called once, at the warm-up boundary: reset statistics and
          start counting *)
}

val chunk_size : int
(** Accesses a {!walk} draws per chunk (4096). *)

val walk : stage:string -> t -> int -> consumer array -> unit
(** [walk ~stage t n consumers] draws the next [n] accesses once each,
    {!chunk_size} at a time into one reused buffer ({!fill}), and feeds
    every chunk to every consumer in turn.  After the first
    [warmup_fraction] of [n], it calls each consumer's [measure]: a
    chunk that holds the cut is fed as the piece before it, then the
    piece from it.  Each consumer therefore sees exactly the accesses,
    and the [measure] point, that a per-access walk with {!iter} gives
    it.  It polls the deadline before each full chunk (once per 4096
    accesses, as {!iter} does), counts one [workload.walks], and runs
    in a [workload:walk] span. *)

val walk_memoised :
  stage:string ->
  gen:(unit -> t) ->
  n:int ->
  ('v Nmcache_engine.Memo.t * string * (unit -> consumer * (unit -> 'v))) array ->
  'v array
(** One memoised {!walk} for a batch of members [(table, key, start)]
    that share a trace.  Members already in their table are served
    from it ({!Nmcache_engine.Memo.find_or_compute_many}).  Each
    claimed member first passes the [stage] fault point and retry
    boundary under its own key.  Then [start ()] builds its consumer
    and the [finish] that reads its value after the walk.  The walk
    over [gen ()] runs once, for every member that started.  A member
    that fails is not memoised, and the others still are.  Returns
    the values in member order, or raises the first member's failure
    in that order. *)

(** {1 Combinators} *)

val mix : name:string -> rng:Nmcache_numerics.Rng.t -> (float * t) list -> t
(** [mix ~name ~rng parts] draws each access from one of the [parts]
    with probability proportional to its weight; each part keeps its own
    state, so interleaving preserves per-part locality.  Raises
    [Invalid_argument] on an empty list or non-positive weights. *)

val with_write_fraction : rng:Nmcache_numerics.Rng.t -> p:float -> t -> t
(** Overrides the stream's read/write mix with i.i.d. writes of
    probability [p] (clamped to [0, 1]). *)

(** {1 Micro-patterns (tests and calibration)} *)

val sequential : ?start:int -> ?stride:int -> name:string -> unit -> t
(** [start], [start+stride], ... (defaults 0, 64): never reuses a block
    when [stride] ≥ block size. *)

val cyclic : ?start:int -> ?stride:int -> name:string -> length:int -> unit -> t
(** Loops over [length] addresses forever — the LRU litmus pattern:
    hits everywhere when the loop fits, 100% misses when it exceeds
    capacity by one under LRU. *)

val uniform_random :
  ?base:int -> name:string -> rng:Nmcache_numerics.Rng.t -> footprint:int -> unit -> t
(** Uniform random word addresses over [footprint] bytes. *)
