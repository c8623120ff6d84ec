(* CRC-32 (IEEE 802.3), slice-by-8 over native ints.  A 63-bit int
   holds the 32-bit register with room to spare, so nothing is boxed.
   Each step folds eight bytes, read as two little-endian 32-bit
   halves, through eight table loads; a tail shorter than a word takes
   the byte-at-a-time step. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* [slices.(256 * k + b)] is the register after byte [b] and then [k]
   zero bytes: slice 0 is [table], and each slice extends the one
   before by one zero byte.  A word's byte [j] goes through slice
   [7 - j]. *)
let slices =
  let t = Array.make 2048 0 in
  Array.blit table 0 t 0 256;
  for i = 256 to 2047 do
    let c = t.(i - 256) in
    t.(i) <- table.(c land 0xFF) lxor (c lsr 8)
  done;
  t

let init = 0

(* the low 32 bits of [s.[i] .. s.[i+3]], unsigned *)
let u32 s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

(* zlib convention: the argument and result are finished CRCs, the
   pre/post-conditioning happens inside, so updates chain *)
let update_sub crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc32.update_sub";
  let stop = pos + len in
  let c = ref (crc lxor 0xFFFFFFFF) and i = ref pos in
  while !i + 8 <= stop do
    let lo = !c lxor u32 s !i and hi = u32 s (!i + 4) in
    c :=
      slices.(1792 + (lo land 0xFF))
      lxor slices.(1536 + ((lo lsr 8) land 0xFF))
      lxor slices.(1280 + ((lo lsr 16) land 0xFF))
      lxor slices.(1024 + (lo lsr 24))
      lxor slices.(768 + (hi land 0xFF))
      lxor slices.(512 + ((hi lsr 8) land 0xFF))
      lxor slices.(256 + ((hi lsr 16) land 0xFF))
      lxor slices.(hi lsr 24);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    c := table.((!c lxor Char.code (String.unsafe_get s j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let update crc s = update_sub crc s 0 (String.length s)
let crc s = update init s
