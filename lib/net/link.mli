(** A unidirectional network link.

    Models the transmit path of one NIC feeding a wire: messages are
    serialized at the link's bandwidth (store-and-forward, FIFO) and
    then propagate with a fixed one-way latency. The serialization
    queue is what makes a 100 Mbit/s link a shared resource: replies
    queue behind each other exactly as on the paper's Ethernet
    switch. *)

open Sio_sim

type t

val create :
  engine:Engine.t -> bandwidth_bits_per_sec:int -> latency:Time.t -> t
(** Raises [Invalid_argument] if bandwidth is not positive or latency
    is negative. *)

val transmit : t -> extra_latency:Time.t -> bytes_len:int -> (unit -> unit) -> unit
(** [transmit t ~extra_latency ~bytes_len k] queues a [bytes_len]-byte
    message. [k] runs at the instant the last byte arrives at the far
    end: departure (after queueing + serialization) + latency +
    [extra_latency] (per-client modem delays; [Time.zero] on a LAN).
    The argument is required so no option is built per packet. *)

val serialization_time : t -> bytes_len:int -> Time.t
(** Wire time of a message at this link's bandwidth, without queueing. *)

val busy_until : t -> Time.t
(** The time at which the transmit queue drains, given current load. *)

val bytes_sent : t -> int
(** Total payload bytes ever accepted for transmission. *)

val utilization : t -> now:Time.t -> float
(** Fraction of wall time spent serializing, from creation to [now]. *)
