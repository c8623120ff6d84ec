let linspace ~lo ~hi ~steps =
  if steps < 0 then invalid_arg "Minimize.linspace: negative steps";
  if lo > hi then invalid_arg "Minimize.linspace: lo > hi";
  if steps = 0 then begin
    if lo <> hi then invalid_arg "Minimize.linspace: steps = 0 with lo <> hi";
    [| lo |]
  end
  else
    Array.init (steps + 1) (fun i ->
        lo +. ((hi -. lo) *. float_of_int i /. float_of_int steps))
