(** A task blocked in a wait call (epoll_wait, DP_POLL, poll, select):
    its wait-queue entry, its timeout timer, and the call's own state.

    A backend instance keeps one sleeper in a {!pool} and reuses it for
    every sleep; the waiter and timer closures are built once, with
    the sleeper, so going to sleep allocates nothing beyond the
    timer's event-queue entry. Only a second sleeper on the same
    instance at the same time gets a fresh one. *)

open Sio_sim

type 'call t = private {
  engine : Engine.t;
  call : 'call;  (** the backend's per-call state, rewritten each call *)
  mutable busy : bool;
  mutable timeout : Time.t;  (** negative: no timeout *)
  mutable timer : Event_queue.handle;
  mutable waiter : Socket.waiter;
  mutable expire : unit -> unit;
}

type 'call pool

val pool :
  engine:Engine.t ->
  call:(unit -> 'call) ->
  on_wake:('call t -> unit) ->
  on_expire:('call t -> unit) ->
  'call pool
(** [on_wake] runs when the sleeper's waiter is woken, [on_expire] when
    its timeout fires; [call] makes the per-call state of a new
    sleeper. *)

val acquire : 'call pool -> timeout:Time.t option -> 'call t
(** A sleeper that is not asleep, marked busy with [timeout] ([None]:
    none). *)

val arm : 'call t -> unit
(** Starts the timeout in full, if there is one. *)

val disarm : 'call t -> unit
(** Cancels a pending timeout; a no-op once it fired. *)

val release : 'call t -> unit
(** The call returned: the sleeper may be reused. *)
