(** Timed, cancellable events.

    A flat 4-ary min-heap of unboxed int nodes (time, seq, slot), with
    each scheduled event's action and heap position kept in per-slot
    arrays. Events fire in (time, scheduling order); scheduling, firing
    and cancelling allocate nothing beyond the caller's closure.
    Cancellation is eager: the event leaves the heap at once and its
    action is dropped, so nothing it captured stays reachable through
    the queue. Pending checks are O(1) array reads; schedule, pop and
    cancel are O(log n) in the number of pending events. *)

type t

type handle [@@immediate]
(** Identifies a scheduled event so it can be cancelled: an immediate
    int packing the event's slot and the slot's generation, so holding
    one costs nothing and storing one needs no write barrier. A handle
    goes stale the moment its event fires or is cancelled, and stays
    stale when its slot is reused; stale handles are harmless (cancel
    is a no-op, {!is_pending} answers [false]). Generations count
    modulo 2{^30}: only a handle kept across 2{^30} reuses of its slot
    could match again. *)

val none : handle
(** A handle that is never pending; cancelling it is a no-op. The
    placeholder for "no event scheduled", without an option box. *)

val create : ?initial_capacity:int -> unit -> t
(** [initial_capacity] (default 16) pre-sizes the heap and the slot
    arrays for queues whose population is known in advance. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> handle
(** [schedule q ~at f] arranges for [f ()] to run when the queue is
    advanced to time [at]. Events at equal times fire in scheduling
    order. Raises [Invalid_argument] if [at] is negative. *)

val cancel : t -> handle -> unit
(** [cancel q h] removes the event from the queue and drops its
    action, so nothing the action captured stays reachable through the
    queue. Cancelling an event that already fired (or was already
    cancelled) is a no-op. *)

val is_pending : t -> handle -> bool
(** [is_pending q h] is [true] iff the event is still scheduled: not
    cancelled and not yet fired. Events that already fired answer
    [false]. *)

val peek_time : t -> Time.t
(** Time of the earliest pending event; negative when none is queued.
    The allocation-free form of {!next_time}. *)

val pop_next : t -> unit -> unit
(** Removes the earliest pending event and returns its action. Raises
    [Invalid_argument] when none is queued ({!peek_time} is negative). *)

val next_time : t -> Time.t option
(** Time of the earliest pending event. *)

val pop_due : t -> now:Time.t -> (unit -> unit) option
(** [pop_due q ~now] removes and returns the action of the earliest
    pending event with time <= [now], if any. *)

val length : t -> int
(** Pending events: scheduled, not yet fired and not cancelled. *)

val is_empty : t -> bool
