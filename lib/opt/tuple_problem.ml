module Component = Nmcache_geometry.Component

type spec = {
  n_vth : int;
  n_tox : int;
}

let spec_name s = Printf.sprintf "%d Tox + %d Vth" s.n_tox s.n_vth

type point = {
  amat : float;
  energy : float;
  vth_set : float array;
  tox_set : float array;
  group_knobs : Component.knob array;
}

let figure2_specs =
  [
    { n_vth = 2; n_tox = 2 };
    { n_vth = 3; n_tox = 2 };
    { n_vth = 2; n_tox = 3 };
    { n_vth = 1; n_tox = 2 };
    { n_vth = 2; n_tox = 1 };
  ]

(* Call [f] on every k-subset of 0..n-1; the index buffer is reused. *)
let combinations n k f =
  let buf = Array.make k 0 in
  let rec go pos start =
    if pos = k then f buf
    else
      for v = start to n - (k - pos) do
        buf.(pos) <- v;
        go (pos + 1) (v + 1)
      done
  in
  if k >= 1 && k <= n then go 0 0

type row_eval =
  groups:int array -> pairs:int array -> amat:float array -> energy:float array -> unit

(* Frontier bins: the amat range is discovered from the uniform sweep
   (delay extremes are at uniform extreme assignments), and each of
   [n_bins] bins keeps the least energy seen so far, first found on a
   tie, with its assignment and value sets in flat arrays, so keeping
   a better point allocates nothing. *)
let n_bins = 1024

let pareto_curve ~grid ~n_groups ~(eval : row_eval) ~spec =
  if n_groups < 1 || n_groups > 8 then invalid_arg "Tuple_problem: n_groups out of [1,8]";
  let n_v = Array.length grid.Grid.vths and n_t = Array.length grid.Grid.toxs in
  if spec.n_vth < 1 || spec.n_vth > n_v then invalid_arg "Tuple_problem: n_vth out of range";
  if spec.n_tox < 1 || spec.n_tox > n_t then invalid_arg "Tuple_problem: n_tox out of range";
  let groups = Array.make n_groups 0 in
  (* amat range estimate from the uniform sweep, one pair per row *)
  let amat_min = ref Float.infinity and amat_max = ref Float.neg_infinity in
  let pair = [| 0 |] and pair_amat = [| 0.0 |] and pair_energy = [| 0.0 |] in
  for i = 0 to (n_v * n_t) - 1 do
    Array.fill groups 0 n_groups i;
    pair.(0) <- i;
    eval ~groups ~pairs:pair ~amat:pair_amat ~energy:pair_energy;
    let amat = pair_amat.(0) in
    if amat < !amat_min then amat_min := amat;
    if amat > !amat_max then amat_max := amat
  done;
  let lo = !amat_min *. 0.999 and hi = !amat_max *. 1.001 in
  let scale = float_of_int n_bins /. (hi -. lo) in
  let filled = Array.make n_bins false in
  let bin_amat = Array.make n_bins 0.0 and bin_energy = Array.make n_bins 0.0 in
  let bin_groups = Array.make (n_bins * n_groups) 0 in
  let bin_vset = Array.make (n_bins * spec.n_vth) 0 in
  let bin_xset = Array.make (n_bins * spec.n_tox) 0 in
  (* enumerate value subsets, then group assignments over the subset *)
  let n_pairs = spec.n_vth * spec.n_tox in
  let allowed = Array.make n_pairs 0 in
  let amat = Array.make n_pairs 0.0 and energy = Array.make n_pairs 0.0 in
  let choice = Array.make n_groups 0 in
  combinations n_v spec.n_vth (fun vset ->
      combinations n_t spec.n_tox (fun xset ->
          (* flat grid index = vth_index * n_t + tox_index *)
          for j = 0 to spec.n_vth - 1 do
            for l = 0 to spec.n_tox - 1 do
              allowed.((j * spec.n_tox) + l) <- (vset.(j) * n_t) + xset.(l)
            done
          done;
          (* an odometer over n_pairs^n_groups with group 0 turning
             fastest: one row per setting of groups 1..n-1, each row
             every allowed pair of group 0 *)
          Array.fill choice 0 n_groups 0;
          let more = ref true in
          while !more do
            for g = 1 to n_groups - 1 do
              groups.(g) <- allowed.(choice.(g))
            done;
            eval ~groups ~pairs:allowed ~amat ~energy;
            for k = 0 to n_pairs - 1 do
              let a = amat.(k) and e = energy.(k) in
              let b = int_of_float ((a -. lo) *. scale) in
              let b = if b < 0 then 0 else if b >= n_bins then n_bins - 1 else b in
              if (not filled.(b)) || e < bin_energy.(b) then begin
                filled.(b) <- true;
                bin_amat.(b) <- a;
                bin_energy.(b) <- e;
                groups.(0) <- allowed.(k);
                Array.blit groups 0 bin_groups (b * n_groups) n_groups;
                Array.blit vset 0 bin_vset (b * spec.n_vth) spec.n_vth;
                Array.blit xset 0 bin_xset (b * spec.n_tox) spec.n_tox
              end
            done;
            let g = ref 1 in
            while !g < n_groups && choice.(!g) = n_pairs - 1 do
              choice.(!g) <- 0;
              incr g
            done;
            if !g < n_groups then choice.(!g) <- choice.(!g) + 1 else more := false
          done));
  (* sweep bins ascending, keep strictly improving energy *)
  let knob_of_flat i =
    Component.knob ~vth:grid.Grid.vths.(i / n_t) ~tox:grid.Grid.toxs.(i mod n_t)
  in
  let points = ref [] in
  let best = ref Float.infinity in
  for b = 0 to n_bins - 1 do
    if filled.(b) && bin_energy.(b) < !best then begin
      best := bin_energy.(b);
      points :=
        {
          amat = bin_amat.(b);
          energy = bin_energy.(b);
          vth_set =
            Array.init spec.n_vth (fun j -> grid.Grid.vths.(bin_vset.((b * spec.n_vth) + j)));
          tox_set =
            Array.init spec.n_tox (fun l -> grid.Grid.toxs.(bin_xset.((b * spec.n_tox) + l)));
          group_knobs =
            Array.init n_groups (fun g -> knob_of_flat bin_groups.((b * n_groups) + g));
        }
        :: !points
    end
  done;
  List.rev !points

let curves ~grid ~n_groups ~eval ~specs =
  List.map (fun spec -> (spec, pareto_curve ~grid ~n_groups ~eval ~spec)) specs
