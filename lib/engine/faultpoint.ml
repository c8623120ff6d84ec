type arm = Always | Prob of float | Key of string

type config = {
  seed : int64;
  arms : (string * arm) list;
  spec : string;
}

let state : config option Atomic.t = Atomic.make None

let clear () = Atomic.set state None
let active () = Atomic.get state <> None
let spec () = Option.map (fun c -> c.spec) (Atomic.get state)

(* splitmix64 finaliser over an FNV-1a pass: cheap, dependency-free,
   and stable across platforms — the whole point is that the same
   (seed, point, key) always draws the same number, whatever domain or
   --jobs setting evaluates it *)
let fnv1a h0 s =
  String.fold_left
    (fun h c -> Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
    h0 s

let mix h =
  let h = Int64.add h 0x9e3779b97f4a7c15L in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 30)) 0xbf58476d1ce4e5b9L in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 27)) 0x94d049bb133111ebL in
  Int64.logxor h (Int64.shift_right_logical h 31)

let draw ~seed ~point ~key =
  let h = fnv1a 0xcbf29ce484222325L (Int64.to_string seed) in
  let h = fnv1a (mix h) point in
  let h = mix (fnv1a (mix h) key) in
  (* top 53 bits -> uniform in [0, 1) *)
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

let parse spec =
  let entries =
    List.filter (fun s -> s <> "") (String.split_on_char ',' (String.trim spec))
  in
  let rec go seed arms = function
    | [] -> Ok { seed; arms = List.rev arms; spec }
    | entry :: rest -> (
      let entry = String.trim entry in
      match String.index_opt entry '=' with
      | Some i ->
        let name = String.sub entry 0 i in
        let key = String.sub entry (i + 1) (String.length entry - i - 1) in
        if name = "" then Error (Printf.sprintf "empty fault point in %S" entry)
        else go seed ((name, Key key) :: arms) rest
      | None -> (
        match String.index_opt entry ':' with
        | Some i -> (
          let name = String.sub entry 0 i in
          let value = String.sub entry (i + 1) (String.length entry - i - 1) in
          if name = "" then Error (Printf.sprintf "empty fault point in %S" entry)
          else if name = "seed" then
            match Int64.of_string_opt value with
            | Some s -> go s arms rest
            | None -> Error (Printf.sprintf "seed wants an integer, got %S" value)
          else
            match float_of_string_opt value with
            | Some p when p >= 0.0 && p <= 1.0 -> go seed ((name, Prob p) :: arms) rest
            | Some _ -> Error (Printf.sprintf "probability out of [0,1] in %S" entry)
            | None -> Error (Printf.sprintf "bad probability in %S" entry))
        | None ->
          if entry = "" then go seed arms rest
          else go seed ((entry, Always) :: arms) rest))
  in
  go 0L [] entries

let configure spec =
  match parse spec with
  | Ok config ->
    Atomic.set state (Some config);
    Ok ()
  | Error _ as e -> e

(* retry semantics per arm: [Always] models a permanent fault (fires on
   every attempt, a retry can never mask it); [Key] models a targeted
   transient (fires on the first attempt only, so a retry boundary
   recovers it); [Prob] redraws per attempt — the effective key gains
   an "#aN" suffix for N > 1, keeping attempt 1 byte-compatible with
   the pre-retry draw *)
let should_fire ?(attempt = 1) ~point ~key () =
  match Atomic.get state with
  | None -> false
  | Some { seed; arms; _ } ->
    List.exists
      (fun (name, arm) ->
        String.equal name point
        &&
        match arm with
        | Always -> true
        | Key k -> String.equal k key && attempt = 1
        | Prob p ->
          let key = if attempt = 1 then key else Printf.sprintf "%s#a%d" key attempt in
          draw ~seed ~point ~key < p)
      arms

let hit ?(attempt = 1) ~point ~key () =
  if should_fire ~attempt ~point ~key () then begin
    Metrics.incr "faults.injected";
    Fault.error ~kind:Fault.Injected ~stage:point key
  end

let env_var = "PPCACHE_FAULTS"

let configure_from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> Ok false
  | Some spec -> Result.map (fun () -> true) (configure spec)
