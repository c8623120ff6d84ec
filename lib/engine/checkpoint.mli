(** Durable checkpoint journal: crash a sweep, resume it, lose nothing.

    An append-only binary journal of completed sweep slots, one file
    per checkpoint directory ([DIR/journal.ppck]).  Each record is a
    [(key, marshalled value)] pair guarded by a CRC-32; replay at
    {!open_} is corruption-tolerant — records are read until the first
    truncated or CRC-mismatching one, the file is truncated back to the
    last good record, and the lost tail is simply recomputed.  A crash
    mid-append can therefore cost at most the record being written,
    and a corrupt slot is never served.

    {!Sweep} integrates the journal transparently: when a journal is
    armed ({!set_active}, via [ppcache run --checkpoint DIR]) every
    *keyed* task slot ({!Task.make}'s [key]) is looked up before being
    computed and stored after.  Because slot keys encode every input
    the result depends on, and results are served in slot order
    regardless of where they came from, a resumed run's output is
    byte-identical to an uninterrupted one at any [--jobs].

    Values travel through [Marshal], so a lookup must deserialise at
    the type that was stored; {!Sweep} enforces this by namespacing
    keys with the task name ([<task>\x00<slot key>] — one task, one
    result type).  All operations are domain-safe. *)

type t

val open_ : dir:string -> resume:bool -> t
(** Open (creating [dir] as needed) the journal at [dir/journal.ppck].
    With [resume = true] an existing journal is replayed (tolerantly —
    see above) and extended; with [resume = false], or when the file is
    missing or has a foreign header, a fresh journal is started.
    Single-writer: an advisory {!Lockfile} on [journal.ppck.lock] is
    held until {!close}, so a second process (or handle) armed on the
    same directory raises {!Lockfile.Locked} instead of silently
    interleaving records; a crashed owner's stale lock is broken
    automatically.  Counters: [checkpoint.replayed] (records served
    back from disk), [checkpoint.dropped] (a corrupt tail was
    truncated). *)

val close : t -> unit
(** Flush and close the journal file and release the writer lock;
    later {!store}s still populate the in-memory table but no longer
    persist. *)

val lookup : t -> key:string -> 'a option
(** The journaled value for [key], if present — counted under
    [checkpoint.served].  Unsafe at the wrong type, like [Marshal];
    use namespaced keys. *)

val store : t -> key:string -> 'a -> unit
(** Journal [key -> value] (marshalled, CRC-guarded, flushed) unless
    the key is already present.  Counted under [checkpoint.appended]. *)

val mem : t -> key:string -> bool
val entries : t -> int

val dir : t -> string
val path : t -> string

val replayed : t -> int
(** Records recovered from disk at {!open_}. *)

val served : t -> int
(** Lookups answered from the table since {!open_}. *)

val appended : t -> int
(** Fresh records written since {!open_}. *)

val dropped_tail : t -> bool
(** Whether {!open_} had to truncate a corrupt or half-written tail. *)

(* -- the process-wide active journal -------------------------------- *)

val set_active : t option -> unit
(** Arm (or disarm) the journal {!Sweep} consults for keyed slots. *)

val active : unit -> t option

(* -- exposed for tests ----------------------------------------------- *)

val magic : string
(** The 8-byte journal header, ["PPCKPT01"]. *)

val journal_name : string
(** ["journal.ppck"]. *)
