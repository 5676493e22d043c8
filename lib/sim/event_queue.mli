(** Timed, cancellable events.

    A thin layer over {!Heap} that gives each scheduled event a
    generation-stamped slot in a flat array and FIFO ordering among
    events scheduled for the same instant. Cancellation is lazy: a
    cancelled event stays in the heap until its time comes and is then
    discarded. Cancel and pending checks are O(1) array reads — no
    hashing, and no allocation beyond the heap entry itself. *)

type t

type handle
(** Identifies a scheduled event so it can be cancelled. A handle goes
    stale the moment its event fires or is cancelled; stale handles
    are harmless (cancel is a no-op, {!is_pending} answers [false]). *)

val create : ?initial_capacity:int -> unit -> t
(** [initial_capacity] (default 16) pre-sizes the heap and the slot
    array for queues whose population is known in advance. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> handle
(** [schedule q ~at f] arranges for [f ()] to run when the queue is
    advanced to time [at]. Events at equal times fire in scheduling
    order. Raises [Invalid_argument] if [at] is negative. *)

val cancel : t -> handle -> unit
(** [cancel q h] prevents the event from firing. Cancelling an event
    that already fired (or was already cancelled) is a no-op. *)

val is_pending : t -> handle -> bool
(** [is_pending q h] is [true] iff the event is still scheduled: not
    cancelled and not yet fired. Events that already fired answer
    [false]. *)

val peek_time : t -> Time.t
(** Time of the earliest live event, skipping cancelled ones; negative
    when none is queued. The allocation-free form of {!next_time}. *)

val pop_next : t -> unit -> unit
(** Removes the earliest live event and returns its action. Raises
    [Invalid_argument] when none is queued ({!peek_time} is negative). *)

val next_time : t -> Time.t option
(** Time of the earliest live event, skipping cancelled ones. *)

val pop_due : t -> now:Time.t -> (unit -> unit) option
(** [pop_due q ~now] removes and returns the action of the earliest
    live event with time <= [now], if any. *)

val length : t -> int
(** Live (non-cancelled) events still queued. *)

val is_empty : t -> bool
