type entry = {
  time : Time.t;
  seq : int;
  slot : int;
  gen : int;
  mutable action : unit -> unit;
}

(* A handle is the heap entry itself, which records the slot index and
   the slot's generation stamp at scheduling time. Slots are reused
   through a free list; every free bumps the generation, so handles to
   fired or cancelled events go stale in O(1) without any hashing or
   allocation beyond the entry. Cancelling also drops the entry's
   action, so a cancelled event stops retaining what its closure
   captured while the entry waits in the heap for its time. *)
type handle = entry

let gen_mask = (1 lsl 31) - 1

(* Per-slot cell: [(gen lsl 2) lor state]; state 0 is free. *)
let state_pending = 1
let state_cancelled = 2

type t = {
  heap : entry Heap.t;
  mutable cells : int array; (* slot -> (gen lsl 2) lor state *)
  mutable free : int array; (* stack of reusable slot indices *)
  mutable free_len : int;
  mutable high_water : int; (* slots ever handed out *)
  mutable next_seq : int;
  mutable live : int;
}

(* The heap's filler for unused slots. Allocated once, so it is an old
   value by the time any heap grows: filling a large array with a young
   value would force a minor collection on every growth. *)
let filler = { time = 0; seq = 0; slot = 0; gen = -1; action = ignore }

(* Generation -1 never matches a slot cell, so the filler is never
   pending and cancelling it is a no-op. *)
let none = filler

let create ?(initial_capacity = 16) () =
  let initial_capacity = Stdlib.max 1 initial_capacity in
  {
    heap =
      Heap.create ~initial_capacity
        ~leq:(fun a b -> a.time < b.time || (a.time = b.time && a.seq <= b.seq))
        ~dummy:filler ();
    cells = Array.make initial_capacity 0;
    free = Array.make initial_capacity 0;
    free_len = 0;
    high_water = 0;
    next_seq = 0;
    live = 0;
  }

let alloc_slot q =
  if q.free_len > 0 then begin
    q.free_len <- q.free_len - 1;
    q.free.(q.free_len)
  end
  else begin
    let slot = q.high_water in
    let cap = Array.length q.cells in
    if slot = cap then begin
      let cells = Array.make (2 * cap) 0 in
      Array.blit q.cells 0 cells 0 cap;
      q.cells <- cells
    end;
    q.high_water <- slot + 1;
    slot
  end

(* The popped or discarded entry owned its slot: advance the
   generation (staling every outstanding handle to it) and recycle. *)
let free_slot q slot =
  let gen' = ((q.cells.(slot) lsr 2) + 1) land gen_mask in
  q.cells.(slot) <- gen' lsl 2;
  let cap = Array.length q.free in
  if q.free_len = cap then begin
    let free = Array.make (2 * cap) 0 in
    Array.blit q.free 0 free 0 cap;
    q.free <- free
  end;
  q.free.(q.free_len) <- slot;
  q.free_len <- q.free_len + 1

let schedule q ~at action =
  if Time.is_negative at then invalid_arg "Event_queue.schedule: negative time";
  let slot = alloc_slot q in
  let gen = q.cells.(slot) lsr 2 in
  q.cells.(slot) <- (gen lsl 2) lor state_pending;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let e = { time = at; seq; slot; gen; action } in
  Heap.push q.heap e;
  q.live <- q.live + 1;
  e

let is_pending q h =
  h.slot < q.high_water && q.cells.(h.slot) = (h.gen lsl 2) lor state_pending

(* Lazy cancellation: mark the slot and release the action; the entry
   is dropped when it reaches the top of the heap. *)
let cancel q h =
  if is_pending q h then begin
    q.cells.(h.slot) <- (h.gen lsl 2) lor state_cancelled;
    h.action <- ignore;
    q.live <- q.live - 1
  end

let rec drop_cancelled q =
  if not (Heap.is_empty q.heap) then begin
    let e = Heap.top q.heap in
    if q.cells.(e.slot) land 3 = state_cancelled then begin
      ignore (Heap.pop_exn q.heap);
      free_slot q e.slot;
      drop_cancelled q
    end
  end

let peek_time q =
  drop_cancelled q;
  if Heap.is_empty q.heap then -1 else (Heap.top q.heap).time

let pop_next q =
  drop_cancelled q;
  let e = Heap.pop_exn q.heap in
  free_slot q e.slot;
  q.live <- q.live - 1;
  e.action

let next_time q =
  let t = peek_time q in
  if t < 0 then None else Some t

let pop_due q ~now =
  let t = peek_time q in
  if t >= 0 && t <= now then Some (pop_next q) else None

let length q = q.live
let is_empty q = q.live = 0
