(* A serve session: a Store in its own directory, a Service over it, and
   Server.serve on one end of a Unix socketpair, in a thread of the main
   domain as under `ppcache serve --jobs 1`.  The benchmark is the single
   closed-loop client on the other end: it writes one request line and
   reads the response line before sending the next. *)

module Store = Nmcache_engine.Store
module Server = Nmcache_engine.Server
module Service = Core.Service

type t = {
  store : Store.t;
  service : Service.t;
  fd : Unix.file_descr;
  oc : out_channel;
  ic : in_channel;
  server : Thread.t;
  stats : Server.stats option ref;  (** set when the loop returns *)
}

let start ~ctx ~dir =
  let store = Store.open_ ~dir in
  let service = Service.create ~store ~ctx ~queue:64 ~jobs:1 () in
  let fd, server_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let stats = ref None in
  let server =
    Thread.create
      (fun () ->
        let output = Unix.out_channel_of_descr server_fd in
        stats :=
          Some
            (Server.serve ~pool:Nmcache_engine.Pool.sequential
               ~handler:(Service.handler service) ~crash_response:Service.crash_response
               ~overlong_response:Service.overlong_response ~input:server_fd ~output ());
        close_out output)
      ()
  in
  {
    store;
    service;
    fd;
    oc = Unix.out_channel_of_descr fd;
    ic = Unix.in_channel_of_descr fd;
    server;
    stats;
  }

let request t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc;
  input_line t.ic

(* End of input stops the server loop; join it, then release the store. *)
let stop t =
  Unix.shutdown t.fd Unix.SHUTDOWN_SEND;
  Thread.join t.server;
  close_in t.ic;
  Store.close t.store;
  match !(t.stats) with
  | Some s when s.Server.requests = s.Server.responses -> ()
  | Some _ -> failwith "serve session: requests and responses differ"
  | None -> failwith "serve session: the server loop raised"
