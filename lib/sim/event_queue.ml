(* A flat 4-ary min-heap of unboxed int nodes. Node [i] occupies
   [heap.(3i)], [heap.(3i+1)], [heap.(3i+2)] = time, seq, slot; nodes
   are ordered by (time, seq), and seq is unique, so no two nodes tie.
   Each scheduled event owns a slot: [actions.(slot)] holds its action
   and [cells.(slot)] packs [((pos + 1) lsl 30) lor gen], where [pos]
   is the node's heap index ([pos + 1 = 0] while the slot is free) and
   [gen] the slot's generation. A handle is [(slot lsl 30) lor gen]: it
   matches its slot only while the generation it was issued under is
   current and the slot is in the heap. Freeing a slot bumps its
   generation, so handles to fired or cancelled events go stale.

   Generations count modulo 2^30: a stale handle kept across 2^30
   reuses of its slot would match again. A slot is reused once per
   event it carries, so that takes over a billion events through one
   slot while the handle is held. *)

type handle = int

let gen_bits = 30
let gen_mask = (1 lsl gen_bits) - 1
let none = -1

type t = {
  mutable heap : int array; (* stride 3: time, seq, slot *)
  mutable size : int; (* nodes in the heap = pending events *)
  mutable actions : (unit -> unit) array; (* slot -> action *)
  mutable cells : int array; (* slot -> ((pos + 1) lsl 30) lor gen *)
  mutable free : int array; (* stack of reusable slot indices *)
  mutable free_len : int;
  mutable high_water : int; (* slots ever handed out *)
  mutable next_seq : int;
}

let create ?(initial_capacity = 16) () =
  let initial_capacity = Stdlib.max 1 initial_capacity in
  {
    heap = Array.make (3 * initial_capacity) 0;
    size = 0;
    actions = Array.make initial_capacity ignore;
    cells = Array.make initial_capacity 0;
    free = Array.make initial_capacity 0;
    free_len = 0;
    high_water = 0;
    next_seq = 0;
  }

(* Every pending event holds a slot, so the heap never has more nodes
   than slots ever handed out: the heap and the per-slot arrays grow
   together, when a fresh slot would not fit. *)
let grow q =
  let cap = Array.length q.cells in
  let cells = Array.make (2 * cap) 0 in
  Array.blit q.cells 0 cells 0 cap;
  q.cells <- cells;
  let actions = Array.make (2 * cap) ignore in
  Array.blit q.actions 0 actions 0 cap;
  q.actions <- actions;
  let heap = Array.make (6 * cap) 0 in
  Array.blit q.heap 0 heap 0 (3 * q.size);
  q.heap <- heap

let alloc_slot q =
  if q.free_len > 0 then begin
    q.free_len <- q.free_len - 1;
    q.free.(q.free_len)
  end
  else begin
    let slot = q.high_water in
    if slot = Array.length q.cells then grow q;
    q.high_water <- slot + 1;
    slot
  end

(* The fired or cancelled event owned its slot: drop its action, so the
   queue keeps nothing the closure captured, advance the generation
   (staling every outstanding handle to it) and recycle the slot. *)
let free_slot q slot =
  q.actions.(slot) <- ignore;
  q.cells.(slot) <- (q.cells.(slot) + 1) land gen_mask;
  let cap = Array.length q.free in
  if q.free_len = cap then begin
    let free = Array.make (2 * cap) 0 in
    Array.blit q.free 0 free 0 cap;
    q.free <- free
  end;
  q.free.(q.free_len) <- slot;
  q.free_len <- q.free_len + 1

(* Write node (time, seq, slot) at index [i] and record [i] in the
   slot's cell. *)
let place q i time seq slot =
  let heap = q.heap in
  let b = 3 * i in
  heap.(b) <- time;
  heap.(b + 1) <- seq;
  heap.(b + 2) <- slot;
  q.cells.(slot) <- ((i + 1) lsl gen_bits) lor (q.cells.(slot) land gen_mask)

(* Sift by moving a hole: each node the carried node passes moves one
   level into the hole, and the carried node is written once, where
   the hole stops. *)
let sift_up q i time seq slot =
  let heap = q.heap in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 4 in
    let pb = 3 * p in
    let pt = heap.(pb) in
    if time < pt || (time = pt && seq < heap.(pb + 1)) then begin
      place q !i pt heap.(pb + 1) heap.(pb + 2);
      i := p
    end
    else moving := false
  done;
  place q !i time seq slot

let sift_down q i time seq slot =
  let heap = q.heap in
  let size = q.size in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let first = (4 * !i) + 1 in
    if first >= size then moving := false
    else begin
      (* The least of the up to four children. *)
      let best = ref first in
      let bt = ref heap.(3 * first) in
      let bs = ref heap.((3 * first) + 1) in
      let last = Stdlib.min (first + 3) (size - 1) in
      for c = first + 1 to last do
        let cb = 3 * c in
        let ct = heap.(cb) in
        if ct < !bt || (ct = !bt && heap.(cb + 1) < !bs) then begin
          best := c;
          bt := ct;
          bs := heap.(cb + 1)
        end
      done;
      if !bt < time || (!bt = time && !bs < seq) then begin
        place q !i !bt !bs heap.((3 * !best) + 2);
        i := !best
      end
      else moving := false
    end
  done;
  place q !i time seq slot

(* Remove the node at index [i]: the last node fills the hole and moves
   up if it precedes the hole's parent, down otherwise. *)
let remove_at q i =
  let n = q.size - 1 in
  q.size <- n;
  if i < n then begin
    let heap = q.heap in
    let lb = 3 * n in
    let time = heap.(lb) and seq = heap.(lb + 1) and slot = heap.(lb + 2) in
    let pb = 3 * ((i - 1) / 4) in
    if i > 0 && (time < heap.(pb) || (time = heap.(pb) && seq < heap.(pb + 1))) then
      sift_up q i time seq slot
    else sift_down q i time seq slot
  end

let schedule q ~at action =
  if Time.is_negative at then invalid_arg "Event_queue.schedule: negative time";
  let slot = alloc_slot q in
  q.actions.(slot) <- action;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let i = q.size in
  q.size <- i + 1;
  sift_up q i at seq slot;
  (slot lsl gen_bits) lor (q.cells.(slot) land gen_mask)

(* [none] (and any negative int) shifts to a slot past [high_water]. *)
let is_pending q h =
  let slot = h lsr gen_bits in
  slot < q.high_water
  &&
  let cell = q.cells.(slot) in
  cell lsr gen_bits > 0 && cell land gen_mask = h land gen_mask

let cancel q h =
  if is_pending q h then begin
    let slot = h lsr gen_bits in
    remove_at q ((q.cells.(slot) lsr gen_bits) - 1);
    free_slot q slot
  end

let peek_time q = if q.size = 0 then -1 else q.heap.(0)

let pop_next q =
  if q.size = 0 then invalid_arg "Event_queue.pop_next: empty queue";
  let slot = q.heap.(2) in
  let action = q.actions.(slot) in
  remove_at q 0;
  free_slot q slot;
  action

let next_time q =
  let t = peek_time q in
  if t < 0 then None else Some t

let pop_due q ~now =
  let t = peek_time q in
  if t >= 0 && t <= now then Some (pop_next q) else None

let length q = q.size
let is_empty q = q.size = 0
