(** The benchmark topology: one client host and one server host joined
    by a full-duplex switched link, as in the paper's testbed (two
    machines on a 100 Mbit/s Ethernet switch). *)

open Sio_sim

type t

val create :
  engine:Engine.t ->
  ?bandwidth_bits_per_sec:int ->
  ?latency:Time.t ->
  unit ->
  t
(** Defaults: 100 Mbit/s, 100 us one-way latency (LAN through one
    switch). *)

val client_to_server : t -> Link.t
val server_to_client : t -> Link.t

val send_to_server : t -> extra_latency:Time.t -> bytes_len:int -> (unit -> unit) -> unit
val send_to_client : t -> extra_latency:Time.t -> bytes_len:int -> (unit -> unit) -> unit
(** {!Link.transmit} on the up or down link. *)

val rtt : t -> Time.t
(** Round-trip propagation latency, excluding serialization. *)
