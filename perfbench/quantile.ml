type t = {
  n : int;
  p50 : float;
  p90 : float;
  p99 : float;
  tail : (string * float) option;
}

let min_beyond = 10

let rank ~n ~num ~den = max 1 (min n (((num * n) + den - 1) / den))

let at sorted ~num ~den =
  sorted.(rank ~n:(Array.length sorted) ~num ~den - 1)

(* highest first *)
let tails = [ ("p99.9", 999, 1000); ("p99", 99, 100); ("p90", 9, 10) ]

let summarize samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Quantile.summarize: no samples";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let tail =
    List.find_map
      (fun (label, num, den) ->
        if n - rank ~n ~num ~den >= min_beyond then Some (label, at sorted ~num ~den)
        else None)
      tails
  in
  {
    n;
    p50 = at sorted ~num:1 ~den:2;
    p90 = at sorted ~num:9 ~den:10;
    p99 = at sorted ~num:99 ~den:100;
    tail;
  }

let self_check () =
  let ints n = Array.init n (fun i -> float_of_int (n - i)) in
  let expect name got want =
    if got <> want then failwith (Printf.sprintf "Quantile.self_check: %s" name)
  in
  let s = summarize (ints 10) in
  expect "n=10 p50" s.p50 5.;
  expect "n=10 p90" s.p90 9.;
  expect "n=10 p99" s.p99 10.;
  expect "n=10 tail" s.tail None;
  expect "n=1 p50" (summarize [| 7. |]).p50 7.;
  expect "n=3 p50" (summarize [| 3.; 1.; 2. |]).p50 2.;
  expect "n=99 tail" (summarize (ints 99)).tail None;
  expect "n=100 tail" (summarize (ints 100)).tail (Some ("p90", 90.));
  expect "n=128 p90" (summarize (ints 128)).p90 116.;
  expect "n=128 tail" (summarize (ints 128)).tail (Some ("p90", 116.));
  expect "n=999 tail" (summarize (ints 999)).tail (Some ("p90", 900.));
  expect "n=1000 tail" (summarize (ints 1000)).tail (Some ("p99", 990.));
  expect "n=10000 tail" (summarize (ints 10000)).tail (Some ("p99.9", 9990.))
