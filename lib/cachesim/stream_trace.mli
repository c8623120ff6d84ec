(** Chunked streaming traces: billion-access workloads in O(chunk)
    memory.

    A stream is a chunked view over one of three sources — a lazy
    producer (re-runnable generator), a recorded [PPTRC01] trace file,
    or NDJSON lines piped over a file descriptor — simulated through
    {!Cache}/{!Hierarchy} (and the workload library's profiler)
    without ever materialising the trace.  Chunk boundaries are the
    engine seams: each boundary polls the cooperative deadline, emits
    a [chunk_done] progress event, and — through {!resumable_fold} —
    registers a checkpoint slot, so a SIGKILLed billion-access run
    resumes byte-identically the way sweeps already do.

    Chunking is an implementation grain, never a semantic one: for any
    chunk size, a streamed computation is byte-identical to the same
    computation over the materialised {!Trace.t} (the [oracle.stream]
    verify group and the stream test suite gate this).

    {2 The [PPTRC01] trace file format}

    Little-endian throughout, with a CRC-32 ({!Nmcache_engine.Crc32})
    per record like the {!Nmcache_engine.Store} journal:

    {v
    "PPTRC01\x00"                                      8-byte magic
    [len:u32] header-JSON [crc32:u32]                  name/total/chunk
    [count:u32] [plen:u32] payload [crc32:u32]         one per chunk
    v}

    The payload is delta-encoded: per entry one LEB128 varint of
    [zigzag(addr - prev) * 2 + write], with [prev] reset to 0 at each
    chunk boundary so chunks decode independently.  Reads are
    corruption-tolerant the way journal replay is: records are
    consumed until the first truncated, CRC-mismatching or
    undecodable one, and the torn tail is dropped (counted under the
    [stream.dropped_tail] metric) rather than raised.

    {2 Address domain}

    Addresses are integers in [\[0, 2^61)] ({!max_addr} is [2^61 - 1]).
    The varint holds [zigzag(delta) * 2 + write] in 63 bits, so a delta
    must stay below [2^61] in magnitude; the same bound lets a chunk
    pack an entry into one int.  Every source rejects an address
    outside the domain with [Invalid_argument] rather than corrupting
    it, and a decoded address outside it marks the record undecodable. *)

type t

val default_chunk_size : int
(** 65536 entries. *)

(** {1 Sources} *)

val of_producer :
  ?chunk_size:int ->
  ?key:string ->
  name:string ->
  n:int ->
  (unit -> unit -> Trace.entry) ->
  t
(** [of_producer ~name ~n make]: a lazy generator source of exactly
    [n] entries.  [make] must return a {e fresh} producer each call
    (folds may re-open the stream), and a given producer must be
    deterministic — the streamed-equals-materialised contract depends
    on it.  [key], when given, makes folds over the stream
    checkpointable; it must name every input the entries depend on
    (workload, seed, n, chunk size).  Raises [Invalid_argument] if
    [n < 0] or [chunk_size < 1]. *)

val of_trace : ?chunk_size:int -> ?key:string -> name:string -> Trace.t -> t
(** A stream over an already-materialised trace (tests and the
    differential oracle). *)

val of_file : ?chunk_size:int -> ?key:string -> string -> t
(** A [PPTRC01] trace file.  The header is read (and validated)
    eagerly, so a missing file raises [Sys_error] and a foreign or
    corrupt-headered file raises [Invalid_argument] here, not
    mid-simulation.  The default [key] is derived from the header
    ([pptrc:<name>:<total>:<chunk_size>]), so checkpointed replays of
    the same recording resume across processes.  [chunk_size] is the
    {e streaming} grain and is independent of the on-disk chunking. *)

val of_ndjson_fd : ?chunk_size:int -> name:string -> Unix.file_descr -> t
(** A piped external trace: one NDJSON object per line,
    [{"addr": N, "write": bool?}] ([write] defaults to false), read
    through {!Nmcache_engine.Server}'s bounded-memory line reader
    (1 MiB line bound, blank lines skipped, CRLF tolerated).  The
    stream can be consumed once; a malformed line, an overlong line
    or an address outside [\[0, 2^61)] raises [Invalid_argument]
    identifying the line number.  Not checkpointable (a pipe cannot be
    re-read). *)

(** {1 Inspection} *)

val name : t -> string
val chunk_size : t -> int

val key : t -> string option
(** The checkpoint identity of the stream, if it has one. *)

val declared_length : t -> int option
(** Entries the source claims to hold: [Some n] for producers, traces
    and files (the header's [total] — a truncated file may yield
    fewer), [None] for a pipe.  Consumers use it for the warmup
    boundary. *)

(** {1 Packed entries}

    A chunk is an [int array] holding one packed entry per element;
    read each through {!addr} and {!is_write}, never by its bits. *)

val max_addr : int
(** [2^61 - 1], the largest address a stream or trace file holds. *)

val addr : int -> int
(** The address of a packed entry. *)

val is_write : int -> bool
(** Whether a packed entry is a write. *)

(** {1 Folding} *)

val fold_chunks : t -> init:'a -> f:('a -> index:int -> int array -> 'a) -> 'a
(** Stream every entry through [f] in chunk-sized batches of packed
    entries.  [Array.length chunk] is always the entry count: every
    chunk but the last holds exactly {!chunk_size} entries, and the
    last may be short; empty streams call [f] zero times.

    The chunk is a buffer the fold reuses: every full chunk is the
    same physical array, overwritten by the next chunk.  It is valid
    only while [f] runs — [f] must never retain it, capture it in a
    closure, or carry it in the fold state.  This is what keeps a
    steady-state pass allocation-free.

    Memory is O(chunk).  Each chunk boundary polls the engine deadline
    (stage [cachesim.stream]), emits an
    {!Nmcache_engine.Events.Chunk_done} progress event when a sink is
    armed, and counts under the [stream.chunks] / [stream.entries]
    metrics. *)

val resumable_fold :
  ?salt:string ->
  t ->
  init:'s ->
  f:('s -> index:int -> int array -> 's) ->
  's
(** {!fold_chunks} with chunk boundaries registered as checkpoint
    slots: when a journal is armed ({!Nmcache_engine.Sweep.set_journal})
    and the stream has a {!key}, the post-chunk state is journaled
    through {!Nmcache_engine.Sweep.journaled} under
    [stream\x00<key>\x00<salt>:chunk:<i>] and served back on resume —
    the chunk's [f] is skipped and the journaled state replaces the
    accumulator, so a killed run resumes byte-identically.  The state
    must therefore carry {e everything} the fold mutates (caches,
    counters) and must be marshallable (plain data, no closures);
    [salt] must name every consumer-side input (cache geometry,
    warmup boundary) so two different computations over one stream
    can never serve each other's slots.  The chunk contract of
    {!fold_chunks} applies.  Without a journal or a key this is
    exactly {!fold_chunks}. *)

val iter : t -> (int -> bool -> unit) -> int
(** [iter t g] calls [g addr write] for every entry; returns the
    number of entries streamed. *)

(** {1 Simulation drivers} *)

val analyze : t -> Trace.stats
(** Streamed {!Trace.analyze}: identical statistics, O(footprint)
    memory, and — unlike the materialised form — a defined
    {!Trace.zero_stats} answer on an empty stream instead of
    [Invalid_argument]. *)

val replay : t -> Cache.t -> Cache.t * int
(** Stream every entry through a cache.  Checkpoint-aware
    ({!resumable_fold} with the cache geometry as salt): the returned
    cache is the one holding the final state — on a resumed run it is
    a journal-restored object, {e not} the argument — together with
    the entry count. *)

val replay_hierarchy : t -> Hierarchy.t -> Hierarchy.t * int
(** {!replay} through a two-level hierarchy. *)

(** {1 PPTRC01 recording} *)

val magic : string
(** The 8-byte file header, ["PPTRC01\x00"]. *)

val write_file :
  path:string ->
  name:string ->
  ?chunk_size:int ->
  next:(unit -> Trace.entry) ->
  n:int ->
  unit ->
  unit
(** Record [n] entries from a producer to a [PPTRC01] file in
    O(chunk) memory.  [chunk_size] is the on-disk record grain
    (readers re-chunk freely).  Raises [Invalid_argument] if [n < 0],
    [chunk_size < 1], or an entry's address is outside
    [\[0, 2^61)]. *)

val record_stream : path:string -> t -> int
(** Record a stream of {e unknown} length (a piped NDJSON source) to a
    [PPTRC01] file, returning the entry count.  The encoded chunk
    records are spooled to [path ^ ".spool"] while counting, then the
    final file (whose header declares the counted total) is assembled
    and committed with an atomic rename — O(chunk) memory, and no
    partial file is ever visible at [path].  On-disk chunking is the
    stream's {!chunk_size}.  Raises like the stream's fold (e.g.
    [Invalid_argument] on a malformed NDJSON line or an address
    outside [\[0, 2^61)]), cleaning up its temporary files. *)

type file_info = {
  fi_name : string;  (** workload name from the header *)
  fi_total : int;  (** entries the header declares *)
  fi_chunk_size : int;  (** on-disk chunk grain *)
  fi_chunks : int;  (** readable (CRC-valid, decodable) chunks *)
  fi_entries : int;  (** entries those chunks hold *)
  fi_dropped_tail : bool;  (** a torn or corrupt tail was dropped *)
}

val file_info : string -> file_info
(** Scan a trace file: header plus a CRC + decode validation pass over
    every chunk ([fi_entries] is exactly what streaming the file will
    yield).  Raises like {!of_file} on a foreign or corrupt header. *)
