type ('a, 'b) t = {
  name : string;
  f : 'a -> 'b;
  key : ('a -> string) option;
}

let make ~name ?key f = { name; f; key }
let name t = t.name
let kernel t = t.f
let slot_key t x = Option.map (fun k -> k x) t.key
