(** CRC-32 (IEEE 802.3: reflected polynomial [0xEDB88320],
    pre/post-conditioned), the record checksum of every on-disk format
    in the repository: the {!Store} journal ([PPSTOR01]/[PPSTOR02]),
    which also holds run checkpoints, and trace files ([PPTRC01]).

    Values are native ints in [\[0, 2^32)], the unsigned little-endian
    [u32] the formats store; nothing is boxed. *)

val init : int
(** The CRC of the empty string, [0]: the seed of a chain of
    {!update}s. *)

val update : int -> string -> int
(** [update crc s] extends a finished CRC with the bytes of [s], so
    [update (update init a) b = crc (a ^ b)] — a record can be
    checksummed piecewise without concatenating it. *)

val crc : string -> int
(** [crc s = update init s]; [crc "123456789" = 0xCBF43926]. *)
