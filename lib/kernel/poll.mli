(** Classic poll() semantics with the classic costs.

    Every invocation pays for what the paper's Section 3 criticizes:
    the whole interest set is copied into the kernel (per-fd copy-in
    cost), every descriptor's device driver is asked for its status
    (per-fd driver callback), the process registers on every wait
    queue before sleeping, and on wakeup the entire set is scanned
    again. Results are copied back per ready descriptor. *)

open Sio_sim

type result = { fd : int; revents : Pollmask.t }

val wait :
  host:Host.t ->
  lookup:(int -> Socket.t option) ->
  interests:(int * Pollmask.t) list ->
  timeout:Time.t option ->
  k:(result list -> unit) ->
  unit
(** [wait ~host ~lookup ~interests ~timeout ~k] performs one poll()
    call. [lookup] resolves an fd to its socket ([None] yields
    POLLNVAL in the results, like a closed descriptor). [timeout]:
    [Some 0] never sleeps; [None] sleeps forever. [k] receives the
    descriptors with non-empty [revents], in interest order, at the
    simulated time the syscall returns. Error and hangup conditions
    are always reported, whether or not subscribed, per POSIX. *)

val scan_cost : host:Host.t -> n_interests:int -> Time.t
(** The deterministic CPU cost of one scan pass over [n] interests
    (copy-in plus driver callbacks), exposed for the cost-model
    tests. *)

(** A persistent poll set (the interest list a server re-submits every
    loop iteration), kept between calls so the host-side scan is
    O(changed) while the charged costs, operation counters, result
    contents, and result order stay identical to {!wait} over the same
    interests in insertion order. Each entry caches its last probe;
    socket watchers mark it dirty on every status change, so a scan
    re-probes only dirty entries, charges the clean ones analytically
    via {!Cost_model.charge_batch}, and reports the ready ones from
    their cached answers. *)
module Pset : sig
  type pset

  val create : host:Host.t -> lookup:(int -> Socket.t option) -> unit -> pset

  val set : pset -> int -> Pollmask.t -> unit
  (** Add or replace an interest. A new fd appends to the insertion
      order (re-adding a removed fd re-ranks it last, matching a list
      rebuilt the same way); a replaced fd keeps its rank. *)

  val remove : pset -> int -> unit
  val mem : pset -> int -> bool
  val length : pset -> int

  val active_fds : pset -> int list
  (** The dirty fds (cached probe possibly stale), ascending; test hook
      for the churn equivalence property. *)

  val wait_set :
    pset -> timeout:Time.t option -> k:(result Ready_buffer.t -> unit) -> unit
  (** One poll() call over the set; contract as {!wait}, except that the
      results arrive in a buffer the set lends to [k]. The buffer is
      valid until [k] returns; a wait started inside [k] gets a buffer
      of its own. *)
end
