(* Clocks, sample buffers, allocation counters and scratch directories
   shared by the workloads and the layer ledger. *)

let now () = Monotonic_clock.now ()

let since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

(* [time f] is [(f (), seconds)] *)
let time f =
  let t0 = now () in
  let v = f () in
  (v, since t0)

(* Raw samples, for [seconds] of up to a million samples a second.  A
   closed loop may record millions of latencies and the summary needs
   them raw.  The buffer is allocated once and never copied to grow, and
   pages no sample reached are never resident, so peak_rss_mb counts
   only the 4 bytes each sample takes. *)
type samples = {
  data : (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable len : int;
}

let samples ~seconds =
  let capacity = 1024 + int_of_float (seconds *. 1e6) in
  { data = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout capacity; len = 0 }

let add s v =
  if s.len = Bigarray.Array1.dim s.data then failwith "sample buffer full";
  s.data.{s.len} <- v;
  s.len <- s.len + 1

let to_array s = Array.init s.len (fun i -> s.data.{i})
let count s = s.len
let sum s = Array.fold_left ( +. ) 0. (to_array s)

let median values = (Quantile.summarize (Array.of_list values)).Quantile.p50

(* Wall time of one run of this executable with [args], from spawn to
   exit.  Its standard output goes to our standard error, so that only
   the result line reaches standard output. *)
let spawn_time args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let t0 = now () in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> since t0
  | _ -> failwith ("set-up process failed: " ^ String.concat " " args)

(* Words allocated by the calling domain (OCaml 5 counts per domain).
   The minor part comes from Gc.minor_words, which is exact: the
   minor_words of Gc.quick_stat only moves at a minor collection. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

type gc = { words : float; minor : int; major : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    words = allocated_words ();
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
  }

(* the process's peak resident set (VmHWM), which covers every thread,
   the runtime and the major heap alike *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some line -> (
          try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024. /. 1e6)
          with Scanf.Scan_failure _ -> find ())
      in
      find ())

(* Scratch files live under .perfbench/ in the working directory (the
   checkout root), never in a system temp dir. *)
let scratch_root = ".perfbench"

let created = ref []

let fresh_dir tag =
  let dir =
    Filename.concat scratch_root
      (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) (List.length !created))
  in
  if not (Sys.file_exists scratch_root) then Unix.mkdir scratch_root 0o755;
  Unix.mkdir dir 0o755;
  created := dir :: !created;
  dir

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let remove_scratch () =
  List.iter rm_rf !created;
  created := []
