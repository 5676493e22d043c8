(** Per-connection server state machine.

    Shared by every server in this library: accumulate request text
    until the headers are complete, spend the configured user-space
    CPU parsing and building the response, then stream the response
    out and close (HTTP/1.0, no keep-alive — the paper's workload).

    Responses larger than the socket's send-buffer capacity cannot be
    written in one call: the machine keeps a send state (total bytes,
    bytes accepted so far) and reports {!Blocked} so the server parks
    the connection on POLLOUT and calls {!handle_event} again on each
    writable edge until the response drains. *)

open Sio_sim
open Sio_kernel

(** How response bytes reach the wire. *)
type transmit =
  | Copy  (** write(): two boundary crossings, per-byte copy cost *)
  | Sendfile  (** {!Kernel.sendfile}: one kernel-internal pass *)
  | Ring
      (** {!Kernel.ring_send} with nothing copied: every byte pinned
          into the shared transmit ring, charged per page *)
  | Selective
      (** the Libra-style compromise: headers (user-generated, small,
          unaligned) copy through the buffer, the file body is pinned
          into the ring *)

type config = {
  doc_bytes : int;
      (** response body size when serving synthetically (paper: 6144) *)
  parse_cost : Time.t;  (** user CPU to parse a complete request *)
  respond_cost : Time.t;
      (** user CPU to locate the (cached) document and build headers *)
  read_spin_cost : Time.t;
      (** user CPU for an event that produced no complete request *)
  fs : Fs.t option;
      (** when set, documents come from the filesystem substrate: the
          requested path is stat'ed and read through the page cache,
          and unknown paths get a 404 *)
  transmit : transmit;
      (** send path for file-backed responses. The 404 page always
          takes the copy path — its body is user-generated text, not
          page cache data — and a ring attach refused by the memory
          budget also degrades to copy. *)
}

val not_found_body_bytes : int
(** Size of the 404 page served for unknown paths. *)

val default_config : config
(** Calibrated so one request costs ≈0.9 ms of CPU end to end on the
    default cost model (see DESIGN.md). *)

type t

val create : fd:int -> now:Time.t -> t

val none : t
(** A connection bound to no descriptor: the filler of connection
    tables ({!Sio_sim.Fd_map.create}'s [dummy]). Never driven. *)

val with_fd : t -> fd:int -> t
(** The same connection state rebound to a new descriptor number —
    what happens when a connection is passed to another process over a
    UNIX-domain socket (phhttpd's overflow handoff). *)

val fd : t -> int
val last_activity : t -> Time.t
val touch : t -> now:Time.t -> unit

val sending : t -> bool
(** A response is partly sent: the server must watch POLLOUT (not
    POLLIN) for this descriptor and feed writable edges back into
    {!handle_event}. *)

type outcome =
  | Replied of int
      (** response complete: bytes of the {e final} chunk accepted
          this event (the whole response for single-write sends);
          connection closed *)
  | Again  (** request not complete yet; keep waiting for POLLIN *)
  | Blocked of int
      (** send buffer filled after accepting this many bytes: park the
          connection on POLLOUT and deliver writable edges here *)
  | Closed_by_peer  (** EOF, reset, or error; connection closed *)

val handle_event : Process.t -> config -> t -> now:Time.t -> outcome
(** Drive the state machine on a readiness event. While no response is
    pending this reads and parses; once a response has started, any
    event continues the send. The caller closes the descriptor and
    drops the connection on [Replied] and [Closed_by_peer] outcomes —
    this function has already issued the close() itself; on [Blocked]
    the caller must (on the first block) switch the descriptor's
    interest to POLLOUT and bump {!Server_stats.t.partial_writes}. *)
