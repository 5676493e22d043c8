(** Struct-of-arrays connection arena.

    Per-connection hot scalar state (socket state enum, buffer levels
    and capacities, hint flags, memory reservation)
    lives in parallel Bigarray columns indexed by a dense slot. Slots
    are recycled through a free list; every {!free} bumps the slot's
    generation stamp so outstanding {slot, gen} handles go stale in
    O(1) — the {!Sio_sim.Event_queue} pattern.

    Cold state (the TCP peer, payload text, registrations, accept
    queues) hangs off the [cold] side table, populated lazily by
    {!Socket} only for connections that need it; an idle established
    connection costs roughly 70 column bytes plus one pointer word.

    Discipline for raw slot indices: a slot is only meaningful next to
    the generation read at {!alloc} time. Pack both into an immutable
    handle immediately; never use a raw slot as a [Hashtbl] key or
    store one in mutable state across a close (enforced by the
    [arena-slot] lint rule). *)

open Bigarray

type int_col = (int, int_elt, c_layout) Array1.t
type byte_col = (int, int8_unsigned_elt, c_layout) Array1.t

type cold = ..
(** Extension point for per-connection cold state. [Socket] adds its
    own constructor; the arena only stores and drops the values. *)

type cold += No_cold  (** The value of a slot without cold state. *)

type t = {
  mutable st : byte_col;  (** 0 = free slot; else state enum 1..5 *)
  mutable flags : byte_col;
      (** bit0 = hints_supported, bit1 = kernel memory charged *)
  mutable gen : int_col;  (** generation stamp, bumped on {!free} *)
  mutable sock_id : int_col;
  mutable backlog : int_col;
  mutable rcv_level : int_col;
  mutable rcv_cap : int_col;
  mutable snd_level : int_col;
  mutable snd_cap : int_col;
  mutable mem_bytes : int_col;
      (** modeled kernel bytes reserved against {!Host} *)
  mutable cold : cold array;  (** [No_cold] for a slot without cold state *)
  mutable free : int array;
  mutable free_len : int;
  mutable high_water : int;
  mutable live : int;
}

val create : ?initial_capacity:int -> unit -> t

val alloc : t -> int
(** Returns a slot with all columns except [gen] zeroed. The caller
    must read [gen.{slot}] and pack both into its handle before the
    slot escapes. *)

val free : t -> int -> unit
(** Bumps the slot's generation (staling every outstanding handle),
    drops its cold state, and recycles the slot. *)

val is_live : t -> slot:int -> gen:int -> bool
(** Whether a handle's generation still matches the slot's. *)

val live_count : t -> int
val high_water : t -> int
val capacity : t -> int
