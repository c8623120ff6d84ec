let dominates (ax, ay) (bx, by) =
  ax <= bx && ay <= by && (ax < bx || ay < by)

(* Sort by (x, y); sweep keeping items whose y strictly improves. *)
let front ~key items =
  let sorted =
    List.sort
      (fun a b ->
        let ax, ay = key a and bx, by = key b in
        match Float.compare ax bx with 0 -> Float.compare ay by | c -> c)
      items
  in
  let rec sweep best_y acc = function
    | [] -> List.rev acc
    | item :: rest ->
      let _, y = key item in
      if y < best_y then sweep y (item :: acc) rest else sweep best_y acc rest
  in
  sweep Float.infinity [] sorted

let is_front ~key items =
  let rec check = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) ->
      let ax, ay = key a and bx, by = key b in
      ax < bx && ay > by && check rest
  in
  check items
  && List.for_all
       (fun a -> not (List.exists (fun b -> a != b && dominates (key b) (key a)) items))
       items
