(** Connection plumbing between a (lightweight) client endpoint and a
    (fully simulated) server socket.

    The benchmark client runs on a machine that is never the
    bottleneck, so its endpoint is a peer record driven by callbacks
    rather than a simulated kernel object; the server endpoint is a
    real {!Socket.t} subject to the host's CPU and event machinery.
    The TCP three-way handshake is abridged to one round trip: SYN up,
    SYN-ACK down (or RST when the backlog is full), after which both
    ends consider the connection established — the level of detail
    the paper's benchmark depends on (connection setup latency,
    refusals under load) without per-segment bookkeeping.

    The server socket points at its peer ({!Socket.set_peer}), so
    response bytes, the FIN and an RST travel back without any
    per-connection closure. A client keeps one handlers record for
    all its connections and hangs per-connection state off the peer
    with {!set_user}.

    All latencies can be stretched per connection with
    [extra_latency], which is how inactive/modem clients are built. *)

open Sio_sim
open Sio_net

type t = Socket.peer

type client_handlers = Socket.handlers = {
  on_established : t -> unit;
  on_refused : t -> unit;  (** backlog overflow: RST during handshake *)
  on_bytes : t -> int -> unit;  (** response bytes arriving at the client *)
  on_server_fin : t -> unit;  (** orderly close by the server *)
  on_reset : t -> unit;  (** RST after establishment *)
}
(** Each handler only runs while the client end is open. *)

val null_handlers : client_handlers
(** All no-ops; tests override the fields they care about. *)

type user = Socket.user = ..

val connect :
  net:Network.t ->
  listener:Socket.t ->
  ?extra_latency:Time.t ->
  handlers:client_handlers ->
  unit ->
  t
(** Starts the handshake; [handlers.on_established] or
    [handlers.on_refused] fires one RTT later (plus [extra_latency]
    each way). *)

val id : t -> int

val user : t -> user
(** The client state set by {!set_user}; [Socket.No_user] before. *)

val set_user : t -> user -> unit

val server_socket : t -> Socket.t option
(** The server-side socket, once the SYN has arrived. *)

val client_send : t -> bytes_len:int -> payload:string -> unit
(** Client pushes request bytes toward the server. *)

val client_close : t -> unit
(** Client FIN; the server socket sees [Peer_closed] one way later. *)

val client_abort : t -> unit
(** Client RST (e.g. benchmark timeout): the server socket is reset. *)

val is_client_open : t -> bool
