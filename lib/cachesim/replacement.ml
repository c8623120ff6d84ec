type t =
  | Lru
  | Fifo
  | Random of int
  | Plru

let name = function
  | Lru -> "lru"
  | Fifo -> "fifo"
  | Random _ -> "random"
  | Plru -> "plru"

let of_name ?(seed = 17) s =
  match String.lowercase_ascii s with
  | "lru" -> Some Lru
  | "fifo" -> Some Fifo
  | "random" -> Some (Random seed)
  | "plru" -> Some Plru
  | _ -> None
