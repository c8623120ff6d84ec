(** Building blocks for synthetic workloads: stateful walkers over
    address regions with controlled temporal and spatial locality.

    A walker returns each access as a packed entry
    ({!Nmcache_cachesim.Stream_trace.pack}), the form {!Gen.make}
    takes, so walking allocates nothing. *)

val locality_walker :
  rng:Nmcache_numerics.Rng.t ->
  base:int ->
  bytes:int ->
  p_continue:float ->
  unit ->
  unit ->
  int
(** A cursor over [base, base+bytes): with probability [p_continue] the
    next access is the next word (sequential run, wrapping); otherwise
    the cursor jumps to a uniformly random word.  Models loop/stack
    locality.  Raises [Invalid_argument] on a region smaller than one
    word. *)

val zipf_blocks :
  rng:Nmcache_numerics.Rng.t ->
  base:int ->
  bytes:int ->
  block:int ->
  s:float ->
  run:int ->
  unit ->
  unit ->
  int
(** Block-grained Zipf popularity over the region: each visit picks a
    block by Zipf rank (rank→place scrambled so popularity is not
    spatially correlated) and scans [run] consecutive words inside it.
    Models heap/object locality with a long tail.  The sampler is a
    {!Nmcache_numerics.Zipf.t} of a few words at any region size, so
    the walker keeps nothing per block.  Raises [Invalid_argument] if
    [block] doesn't divide the region or is not a multiple of 8, or
    [run < 1]. *)

val stream : base:int -> bytes:int -> stride:int -> unit -> unit -> int
(** Sequential scan with wrap-around — array streaming. *)
