open Sio_sim
open Sio_net
open Sio_kernel

type t = {
  engine : Engine.t;
  net : Network.t;
  listener : Socket.t;
  w : Workload.t;
  rng : Rng.t;
  partial_request : string;
  mutable established : int;
  mutable reopens : int;
  mutable stopped : bool;
  mutable conns : Tcp.t list;
  (* Built once per client and shared by every open: one record for
     first opens, one for reopens (they differ only in what an
     established connection counts). *)
  mutable first_handlers : Tcp.client_handlers;
  mutable reopen_handlers : Tcp.client_handlers;
}

(* A request prefix with no terminating CRLFCRLF: the server must hold
   the connection open waiting for the rest. *)
let make_partial w =
  let full = Sio_httpd.Http.build_request ~path:w.Workload.document_path in
  String.sub full 0 (String.length full / 2)

let rec open_one t ~first =
  if not t.stopped then begin
    let extra_latency = Latency_profile.draw t.w.Workload.inactive_latency t.rng in
    let handlers = if first then t.first_handlers else t.reopen_handlers in
    let conn = Tcp.connect ~net:t.net ~listener:t.listener ~extra_latency ~handlers () in
    t.conns <- conn :: t.conns
  end

and reopen t =
  if not t.stopped then
    ignore
      (Engine.after t.engine t.w.Workload.inactive_reopen_delay (fun () ->
           open_one t ~first:false))

let make_handlers t ~first =
  {
    Tcp.on_established =
      (fun c ->
        if not t.stopped then begin
          t.established <- t.established + 1;
          if not first then t.reopens <- t.reopens + 1;
          Tcp.client_send c ~bytes_len:(String.length t.partial_request)
            ~payload:t.partial_request
        end);
    on_refused = (fun _ -> reopen t);
    on_bytes = (fun _ _ -> ());
    on_server_fin =
      (fun c ->
        t.established <- t.established - 1;
        Tcp.client_close c;
        reopen t);
    on_reset =
      (fun _ ->
        t.established <- t.established - 1;
        reopen t);
  }

let start ~engine ~net ~listener ~workload ~rng () =
  let t =
    {
      engine;
      net;
      listener;
      w = workload;
      rng;
      partial_request = make_partial workload;
      established = 0;
      reopens = 0;
      stopped = false;
      conns = [];
      first_handlers = Tcp.null_handlers;
      reopen_handlers = Tcp.null_handlers;
    }
  in
  t.first_handlers <- make_handlers t ~first:true;
  t.reopen_handlers <- make_handlers t ~first:false;
  let n = workload.Workload.inactive_connections in
  let window = workload.Workload.inactive_open_window in
  for i = 0 to n - 1 do
    let jitter = if n <= 1 then Time.zero else Time.ns (i * (window / n)) in
    ignore (Engine.after engine jitter (fun () -> open_one t ~first:true))
  done;
  t

let target t = t.w.Workload.inactive_connections
let established t = t.established
let reopens t = t.reopens

let stop t =
  t.stopped <- true;
  List.iter (fun c -> if Tcp.is_client_open c then Tcp.client_close c) t.conns;
  t.conns <- []
