open Sio_sim
open Sio_net

type t = Socket.peer

type client_handlers = Socket.handlers = {
  on_established : t -> unit;
  on_refused : t -> unit;
  on_bytes : t -> int -> unit;
  on_server_fin : t -> unit;
  on_reset : t -> unit;
}

type user = Socket.user = ..

let null_handlers =
  {
    on_established = (fun _ -> ());
    on_refused = (fun _ -> ());
    on_bytes = (fun _ _ -> ());
    on_server_fin = (fun _ -> ());
    on_reset = (fun _ -> ());
  }

let segment_overhead = Socket.segment_overhead

(* Atomic for the same reason as [Socket.next_id]: parallel sweeps
   must not mint duplicate connection ids across domains. *)
let next_id = Atomic.make 0

let charge_softirq host =
  let counters = host.Host.counters in
  counters.Host.softirqs <- counters.Host.softirqs + 1;
  ignore (Host.charge host host.Host.costs.Cost_model.softirq_per_packet)

let refuse (t : t) =
  match t with
  | Socket.Peer c -> Socket.to_client t ~bytes_len:segment_overhead c.handlers.on_refused
  | Socket.No_peer -> ()

(* The SYN reaches the server: its softirq handler either queues the
   new connection or answers with RST. *)
let syn_arrived (t : t) =
  match t with
  | Socket.No_peer -> ()
  | Socket.Peer c -> (
      let listener = c.listener in
      let host = Socket.host listener in
      charge_softirq host;
      match Socket.state listener with
      | Socket.Listening ->
          let sock = Socket.create_established ~host in
          Socket.set_peer sock t;
          if Socket.enqueue_accept listener sock then begin
            c.server_sock <- sock;
            Socket.to_client t ~bytes_len:segment_overhead c.handlers.on_established
          end
          else begin
            refuse t;
            (* The backlog refused it: nothing holds this socket, so
               its arena slot would leak across a reopen storm. *)
            Socket.discard sock
          end
      | Socket.Established | Socket.Peer_closed | Socket.Reset | Socket.Closed ->
          let counters = host.Host.counters in
          counters.Host.connections_refused <- counters.Host.connections_refused + 1;
          refuse t)

let connect ~net ~listener ?(extra_latency = Time.zero) ~handlers () =
  let t =
    Socket.Peer
      {
        net;
        listener;
        extra_latency;
        handlers;
        conn_id = 1 + Atomic.fetch_and_add next_id 1;
        server_sock = listener;
        client_open = true;
        user = Socket.No_user;
      }
  in
  Network.send_to_server net ~extra_latency ~bytes_len:segment_overhead (fun () ->
      syn_arrived t);
  t

let id (t : t) = match t with Socket.Peer c -> c.conn_id | Socket.No_peer -> 0

let server_socket (t : t) =
  match t with
  | Socket.Peer c when c.server_sock != c.listener -> Some c.server_sock
  | Socket.Peer _ | Socket.No_peer -> None

let user (t : t) = match t with Socket.Peer c -> c.user | Socket.No_peer -> Socket.No_user
let set_user (t : t) u = match t with Socket.Peer c -> c.user <- u | Socket.No_peer -> ()

(* A segment from the client toward the server socket, dropped when
   the SYN was never accepted. *)
let to_server (t : t) ~bytes_len k =
  match t with
  | Socket.Peer c ->
      Network.send_to_server c.net ~extra_latency:c.extra_latency ~bytes_len (fun () ->
          match t with
          | Socket.Peer c when c.server_sock != c.listener -> k c.server_sock
          | Socket.Peer _ | Socket.No_peer -> ())
  | Socket.No_peer -> ()

let client_send (t : t) ~bytes_len ~payload =
  if bytes_len < 0 then invalid_arg "Tcp.client_send: negative length";
  match t with
  | Socket.Peer c ->
      Network.send_to_server c.net ~extra_latency:c.extra_latency
        ~bytes_len:(bytes_len + segment_overhead) (fun () ->
          match t with
          | Socket.Peer c when c.server_sock != c.listener ->
              ignore (Socket.deliver c.server_sock ~bytes_len ~payload)
          | Socket.Peer _ | Socket.No_peer -> ())
  | Socket.No_peer -> ()

let client_close (t : t) =
  match t with
  | Socket.Peer c when c.client_open ->
      c.client_open <- false;
      to_server t ~bytes_len:segment_overhead (fun sock ->
          charge_softirq (Socket.host sock);
          Socket.peer_closed sock)
  | Socket.Peer _ | Socket.No_peer -> ()

let client_abort (t : t) =
  match t with
  | Socket.Peer c when c.client_open ->
      c.client_open <- false;
      to_server t ~bytes_len:segment_overhead (fun sock ->
          charge_softirq (Socket.host sock);
          Socket.reset sock)
  | Socket.Peer _ | Socket.No_peer -> ()

let is_client_open (t : t) =
  match t with Socket.Peer c -> c.client_open | Socket.No_peer -> false
