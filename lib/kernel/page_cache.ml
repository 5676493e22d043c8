(* Pages are keyed by one int, [file_id] above [page_bits] and the page
   index below, so a lookup builds no key record. *)
let page_bits = 32

let pack ~file_id ~page = (file_id lsl page_bits) lor page
let file_of packed = packed lsr page_bits

(* Circular doubly linked LRU list through a sentinel node (no option
   per link), indexed by a hash table. *)
type node = { packed : int; mutable prev : node; mutable next : node }

type t = {
  capacity : int;
  table : (int, node) Hashtbl.t;
  lru : node; (* sentinel: [lru.next] is the most recently used page *)
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity_pages =
  if capacity_pages <= 0 then invalid_arg "Page_cache.create: capacity must be positive";
  let rec lru = { packed = -1; prev = lru; next = lru } in
  { capacity = capacity_pages; table = Hashtbl.create 256; lru; hits = 0; misses = 0 }

let capacity t = t.capacity
let resident t = Hashtbl.length t.table

let unlink node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev

let push_front t node =
  node.next <- t.lru.next;
  node.prev <- t.lru;
  t.lru.next.prev <- node;
  t.lru.next <- node

let evict_lru t =
  let node = t.lru.prev in
  if node != t.lru then begin
    unlink node;
    Hashtbl.remove t.table node.packed
  end

let touch t ~file_id ~page =
  let packed = pack ~file_id ~page in
  if Hashtbl.mem t.table packed then begin
    t.hits <- t.hits + 1;
    let node = Hashtbl.find t.table packed in
    unlink node;
    push_front t node;
    `Hit
  end
  else begin
    t.misses <- t.misses + 1;
    if Hashtbl.length t.table >= t.capacity then evict_lru t;
    let node = { packed; prev = t.lru; next = t.lru } in
    Hashtbl.replace t.table packed node;
    push_front t node;
    `Miss
  end

let contains t ~file_id ~page = Hashtbl.mem t.table (pack ~file_id ~page)
let hits t = t.hits
let misses t = t.misses

let invalidate_file t ~file_id =
  (* All victims are unlinked and removed below; the resulting cache
     state (and the returned count) is the same whatever order the
     table enumerates them in. *)
  let victims =
    (Hashtbl.fold
       (fun packed node acc -> if file_of packed = file_id then node :: acc else acc)
       t.table []
    [@lint.ignore "every victim is removed; final LRU state is order-independent"])
  in
  List.iter
    (fun node ->
      unlink node;
      Hashtbl.remove t.table node.packed)
    victims;
  List.length victims
