module Rng = Nmcache_numerics.Rng
module Zipf = Nmcache_numerics.Zipf
module Stream_trace = Nmcache_cachesim.Stream_trace

let word = 8

(* The cursor stays below [words] (a draw from [Rng.int ~bound:words],
   or a step that wraps at [words]), so one compare replaces [mod].  The
   continue draw is [Rng.bernoulli] written out with [p] clamped once:
   the same uniform, compared with the same bound. *)
let locality_walker ~rng ~base ~bytes ~p_continue () =
  if bytes < word then invalid_arg "Regions.locality_walker: region too small";
  let words = bytes / word in
  let p = Float.min 1.0 (Float.max 0.0 p_continue) in
  let cursor = ref (Rng.int rng ~bound:words) in
  fun () ->
    if Float.of_int (Rng.bits53 rng) *. 0x1.0p-53 < p then begin
      let next = !cursor + 1 in
      cursor := if next = words then 0 else next
    end
    else cursor := Rng.int rng ~bound:words;
    Stream_trace.pack (base + (word * !cursor)) false

(* Multiplicative scramble so that popular ranks are spread across the
   region instead of clustered at its start. *)
let scramble rank n = rank * 2654435761 mod n

let zipf_blocks ~rng ~base ~bytes ~block ~s ~run () =
  if block < word || block mod word <> 0 then invalid_arg "Regions.zipf_blocks: bad block";
  if bytes mod block <> 0 || bytes / block < 1 then
    invalid_arg "Regions.zipf_blocks: block must divide region";
  if run < 1 then invalid_arg "Regions.zipf_blocks: run < 1";
  let n_blocks = bytes / block in
  let zipf = Zipf.create ~n:n_blocks ~s in
  let words_per_block = block / word in
  let current = ref 0 in
  let remaining = ref 0 in
  let offset = ref 0 in
  fun () ->
    if !remaining = 0 then begin
      let rank = Zipf.sample zipf rng in
      current := scramble rank n_blocks;
      offset := Rng.int rng ~bound:(max 1 (words_per_block - run + 1));
      remaining := run
    end;
    let addr = base + (!current * block) + (word * !offset) in
    incr offset;
    if !offset >= words_per_block then offset := 0;
    decr remaining;
    Stream_trace.pack addr false

(* The cursor stays below [bytes] and the stride is at most [bytes], so
   a step passes [bytes] by less than [bytes]: one subtraction wraps it
   exactly as [mod] would. *)
let stream ~base ~bytes ~stride () =
  if stride <= 0 || bytes < stride then invalid_arg "Regions.stream: bad stride/region";
  let cursor = ref 0 in
  fun () ->
    let addr = base + !cursor in
    let next = !cursor + stride in
    cursor := if next >= bytes then next - bytes else next;
    Stream_trace.pack addr false
