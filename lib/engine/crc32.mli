(** CRC-32 (IEEE 802.3: reflected polynomial [0xEDB88320],
    pre/post-conditioned), the record checksum of every on-disk format
    in the repository: the {!Store} journal ([PPSTOR01]/[PPSTOR02]),
    which also holds run checkpoints, and trace files ([PPTRC01]).

    Values are native ints in [\[0, 2^32)], the unsigned little-endian
    [u32] the formats store; nothing is boxed.  {!update} is
    slice-by-8: each step folds eight bytes through eight 256-entry
    tables (about 1 ns per byte against 3.5 byte at a time, on a 2-vCPU
    Xeon VM). *)

val init : int
(** The CRC of the empty string, [0]: the seed of a chain of
    {!update}s. *)

val update : int -> string -> int
(** [update crc s] extends a finished CRC with the bytes of [s], so
    [update (update init a) b = crc (a ^ b)] — a record can be
    checksummed piecewise without concatenating it. *)

val update_sub : int -> string -> int -> int -> int
(** [update_sub crc s pos len] extends [crc] with the [len] bytes of
    [s] from [pos]: [update crc (String.sub s pos len)] without the
    copy, so a record read into a reused buffer is checked in place.
    Raises [Invalid_argument] if the range is not inside [s]. *)

val crc : string -> int
(** [crc s = update init s]; [crc "123456789" = 0xCBF43926]. *)
