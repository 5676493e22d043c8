type 'a t = {
  leq : 'a -> 'a -> bool;
  initial_capacity : int;
  dummy : 'a;
  mutable data : 'a array; (* physical storage; [size] live slots *)
  mutable size : int;
}
(* Slots at indices >= size always hold [dummy]: [pop] and [clear]
   erase vacated slots so the heap never pins popped elements
   (Event_queue stores action closures here — a stale reference keeps
   everything the closure captured alive until the slot happens to be
   overwritten). Storing elements unboxed, with a filler instead of
   [None], saves an option block per push. *)

let create ?(initial_capacity = 16) ~leq ~dummy () =
  let initial_capacity = Stdlib.max 1 initial_capacity in
  { leq; initial_capacity; dummy; data = Array.make initial_capacity dummy; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

let ensure_room h =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let data = Array.make (Stdlib.max h.initial_capacity (2 * cap)) h.dummy in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end

(* Standard sift-up: the freshly pushed element climbs while it
   strictly precedes its parent. *)
let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if not (h.leq h.data.(parent) h.data.(i)) then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let push h x =
  ensure_room h;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let top h =
  if h.size = 0 then invalid_arg "Heap.top: empty heap";
  h.data.(0)

let peek h = if h.size = 0 then None else Some h.data.(0)

(* Sift-down after the last element replaces the root: descend toward
   the smaller child until heap order is restored. *)
let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest =
    let smallest = if l < h.size && not (h.leq h.data.(i) h.data.(l)) then l else i in
    if r < h.size && not (h.leq h.data.(smallest) h.data.(r)) then r else smallest
  in
  if smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(smallest);
    h.data.(smallest) <- tmp;
    sift_down h smallest
  end

let pop_exn h =
  if h.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let top = h.data.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then h.data.(0) <- h.data.(h.size);
  h.data.(h.size) <- h.dummy;
  if h.size > 1 then sift_down h 0;
  top

let pop h = if h.size = 0 then None else Some (pop_exn h)

let clear h =
  Array.fill h.data 0 h.size h.dummy;
  h.size <- 0

let to_list h = List.init h.size (fun i -> h.data.(i))
