type 'a t = {
  initial_capacity : int;
  mutable data : 'a array; (* physical storage; [len] live slots *)
  mutable len : int;
}

let create ?(initial_capacity = 16) () =
  { initial_capacity = Stdlib.max 1 initial_capacity; data = [||]; len = 0 }

let length t = t.len
let is_empty t = t.len = 0
let clear t = t.len <- 0

let ensure_room t x =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let data = Array.make (Stdlib.max t.initial_capacity (2 * cap)) x in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  ensure_room t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ready_buffer.get: index out of bounds";
  t.data.(i)

let iter t f =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.data.(i) :: acc) in
  go (t.len - 1) []

(* Free buffers, stacked in a plain array so lending and returning one
   allocates nothing once the pool has grown to its nesting depth. *)
type 'a pool = { mutable free : 'a t array; mutable n_free : int }

let pool () = { free = [||]; n_free = 0 }

let acquire p =
  if p.n_free = 0 then create ()
  else begin
    p.n_free <- p.n_free - 1;
    let b = p.free.(p.n_free) in
    clear b;
    b
  end

let release p b =
  if p.n_free = Array.length p.free then begin
    let free = Array.make (Stdlib.max 2 (2 * p.n_free)) b in
    Array.blit p.free 0 free 0 p.n_free;
    p.free <- free
  end;
  p.free.(p.n_free) <- b;
  p.n_free <- p.n_free + 1
