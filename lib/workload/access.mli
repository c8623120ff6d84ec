(** A single memory reference, boxed: what {!Gen.next} and {!Gen.take}
    return.  The allocation-free paths carry a reference as a packed
    entry instead ({!Nmcache_cachesim.Stream_trace.pack}). *)

type t = {
  addr : int;     (** byte address *)
  write : bool;
}
