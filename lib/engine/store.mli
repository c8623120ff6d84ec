(** Persistent journal store: every expensive artefact, and every
    completed sweep slot of a checkpointed run, saved across processes.

    The store is an append-only binary journal ([DIR/store.ppck], magic
    [PPSTOR01]) of [(namespace, key) -> marshalled value] records, each
    guarded by a CRC-32 ({!Crc32}) and flushed as written.  {!open_}
    replays: records are read until the first truncated or
    CRC-mismatching one, the file is truncated back to the last good
    record, and the lost tail is simply recomputed by later queries — a
    SIGKILL mid-append can at worst lose the record being written.  A
    zero-byte file or one with a foreign header starts over.  Replay is
    first-write-wins, mirroring {!add}: a duplicate key on disk is a
    *dead* record that can never be served.  Dead records and bytes are
    counted at replay and reclaimed by {!compact}, which rewrites the
    live records into a fresh [PPSTOR02] segment via tmp+rename — the
    old segment stays authoritative until the single atomic rename, so
    a SIGKILL at any instruction of compaction loses nothing.  A
    {!Lockfile} on [store.ppck.lock] enforces one writer per directory
    (stale locks from dead owners are broken automatically).

    Namespaces in use (the first three keyed by
    {!Core.Context.fingerprint}-derived strings):

    - ["model.r2"]    — fitted cache models ({!Nmcache_fit.Fitted_cache.t}),
                        so a restarted server never re-characterises a
                        cache it has seen under any budget;
    - ["curve.r1"]    — the rendered [result] bytes of miss-curve
                        answers;
    - ["optimize.r1"] — scheme optima: their parameters and rendered
                        [result] bytes, so a warm query is a lookup and
                        a splice, without touching the numeric stack;
    - ["slot"]        — checkpointed sweep slots ([<task>\x00<slot key>])
                        and stream chunks ([stream\x00...]) of
                        [ppcache run|verify|simulate --checkpoint DIR],
                        journaled through {!Sweep.journaled}.

    Values travel through [Marshal]: a lookup must deserialise at the
    type that was stored, which the namespace discipline guarantees —
    one namespace, one value type (the ["slot"] keys carry their task
    name for the same reason).  A new value format therefore takes a
    new namespace name: the ["model"], ["curve"] and ["optimize"]
    records of older stores held other types, stay on disk unread, and
    compaction keeps them.  All operations are domain-safe. *)

type t

val open_ : dir:string -> t
(** Open (creating [dir] as needed) and replay the store at
    [dir/store.ppck], truncating any corrupt tail.  Raises
    {!Lockfile.Locked} when another live process holds the directory,
    and [Unix.Unix_error] or [Sys_error] when [dir] cannot hold a
    journal (a regular file, an unwritable parent).  Counters:
    [store.replayed], [store.dropped]. *)

val open_fresh : dir:string -> t
(** {!open_} without the replay: an existing journal is discarded and
    the store starts empty — a [--checkpoint] run without [--resume]. *)

val close : t -> unit
(** Flush, close and release the writer lock.  Idempotent. *)

val flush : t -> unit
(** Force buffered appends to disk (appends already flush per record;
    this is the belt-and-braces call on graceful drain). *)

val lookup : t -> ns:string -> key:string -> 'a option
(** The stored value for [(ns, key)], if present — counted under
    [store.hits]; misses under [store.misses].  Unsafe at the wrong
    type, like [Marshal]; respect the namespace discipline. *)

val add : t -> ns:string -> key:string -> 'a -> unit
(** Persist [(ns, key) -> value] (marshalled, CRC-guarded, flushed)
    unless the key is already present — first write wins, so replayed
    and recomputed values can never fight.  Counted under
    [store.appended]. *)

val add_new : t -> ns:string -> key:string -> 'a -> bool
(** {!add}, telling whether this call wrote the record: [false] when
    the key was already present (or the store is closed). *)

val mem : t -> ns:string -> key:string -> bool

val keys : t -> ns:string -> string list
(** Every key stored under [ns], sorted.  Deterministic for a
    deterministic request history. *)

val iter : t -> ns:string -> ('a -> unit) -> unit
(** [iter t ~ns f] calls [f] on the value of every record under [ns],
    in key order — one pass that, unlike {!lookup}, counts nothing: a
    restart seeding its nearest-optimum index from the store is not
    serving it.  Unsafe at the wrong type, like {!lookup}. *)

val entries : t -> int
val replayed : t -> int
val appended : t -> int
val served : t -> int
val dropped_tail : t -> bool
val dir : t -> string
val path : t -> string

val bytes : t -> int
(** Current on-disk size of the journal file in bytes. *)

val segment_version : t -> int
(** 1 for a [PPSTOR01] append-grown journal, 2 for a [PPSTOR02]
    compacted segment (both append-able; {!compact} moves to 2). *)

val live_bytes : t -> int
(** Record bytes (excluding the 8-byte magic) of live records — the
    size a compacted segment's body would have. *)

val dead_records : t -> int
(** On-disk records shadowed by an earlier write of the same key:
    unreachable under first-write-wins, reclaimable by {!compact}. *)

val dead_bytes : t -> int
(** Record bytes occupied by dead records. *)

(* -- compaction ------------------------------------------------------ *)

type compact_stats = {
  live : int;  (** records written to the new segment *)
  reclaimed_records : int;  (** dead records dropped *)
  reclaimed_bytes : int;  (** dead record bytes dropped *)
  before_bytes : int;  (** on-disk size before *)
  after_bytes : int;  (** on-disk size after *)
}

val compact : ?on_step:(int -> unit) -> t -> compact_stats
(** Rewrite the live records (sorted by key — deterministic) into a
    fresh [PPSTOR02] segment: write [store.ppck.tmp], fsync, then
    atomically [rename] it over [store.ppck] and reopen the append
    channel.  The old segment is authoritative until the rename — the
    single commit point — so a SIGKILL at any instruction leaves either
    the complete old segment or the complete new one; a leftover [.tmp]
    is discarded by the next {!open_}.  Requires the store open; the
    held {!Lockfile} already excludes other writers.  Counters:
    [store.compactions], [store.reclaimed_bytes].

    [on_step] is the chaos-test kill seam: [0] before the tmp exists,
    [i] after the i-th live record, [live+1] after the fsync (just
    before the rename), [live+2] after the rename. *)

(* -- exposed for tests ----------------------------------------------- *)

val magic : string
(** ["PPSTOR01"] — append-grown journal. *)

val magic_compacted : string
(** ["PPSTOR02"] — compacted segment written by {!compact}. *)

val store_name : string
(** ["store.ppck"]. *)

val encode_record : ns:string -> key:string -> value:string -> string
(** The raw on-disk bytes of one record ([value] is the already-encoded
    payload, e.g. a [Marshal] string) — exposed so tests and the chaos
    harness can synthesize duplicate (dead) or torn records without
    replicating the binary format. *)
