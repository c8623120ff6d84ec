(* CRC-32 (IEEE 802.3), table-driven over native ints.  A 63-bit int
   holds the 32-bit register with room to spare, so the per-byte step is
   three unboxed ALU ops and a table load — no [Int32] boxing. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let init = 0

(* zlib convention: the argument and result are finished CRCs, the
   pre/post-conditioning happens inside, so updates chain *)
let update crc s =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = 0 to String.length s - 1 do
    c := table.((!c lxor Char.code (String.unsafe_get s i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc s = update init s
