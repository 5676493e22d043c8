(* Int-radix direct map: one value slot per possible key plus an
   occupancy bitmap at 32 keys per word. Values are stored unboxed;
   unbound slots hold the caller's long-lived [dummy] (so a removed
   value is not pinned, and no option block is built per [set]).
   Iteration skips empty words, then re-reads the live bitmap bit by
   bit — never a cached word — which is what makes cursors survive
   mutation mid-sweep (a removed key reads absent, an added key
   present, both fresh). *)

type 'a t = {
  mutable present : int array; (* occupancy bitmap, 32 keys per word *)
  mutable data : 'a array; (* slot per key; [dummy] when unbound *)
  dummy : 'a;
  mutable count : int;
}

let bits_per_word = 32
let word_of k = k lsr 5
let bit_of k = k land 31

let words_for capacity = (capacity + bits_per_word - 1) / bits_per_word

let create ?(initial_capacity = 64) ~dummy () =
  let capacity = Stdlib.max 1 initial_capacity in
  {
    present = Array.make (words_for capacity) 0;
    data = Array.make capacity dummy;
    dummy;
    count = 0;
  }

let length t = t.count
let is_empty t = t.count = 0

let grow t k =
  let cap = ref (Stdlib.max 1 (Array.length t.data)) in
  while !cap <= k do
    cap := 2 * !cap
  done;
  let data = Array.make !cap t.dummy in
  Array.blit t.data 0 data 0 (Array.length t.data);
  let present = Array.make (words_for !cap) 0 in
  Array.blit t.present 0 present 0 (Array.length t.present);
  t.data <- data;
  t.present <- present

(* The bitmap is authoritative: [data] may be shorter than its last
   word covers. *)
let bound t k = k < Array.length t.data && t.present.(word_of k) land (1 lsl bit_of k) <> 0

let mem t k = k >= 0 && bound t k

let get t k = if mem t k then t.data.(k) else t.dummy

let find t k = if mem t k then Some t.data.(k) else None

let set t k v =
  if k < 0 then invalid_arg "Fd_map.set: negative key";
  if k >= Array.length t.data then grow t k;
  if not (bound t k) then begin
    t.count <- t.count + 1;
    let w = word_of k in
    t.present.(w) <- t.present.(w) lor (1 lsl bit_of k)
  end;
  t.data.(k) <- v

let remove t k =
  if not (mem t k) then false
  else begin
    t.data.(k) <- t.dummy;
    let w = word_of k in
    t.present.(w) <- t.present.(w) land lnot (1 lsl bit_of k);
    t.count <- t.count - 1;
    true
  end

let clear t =
  Array.fill t.data 0 (Array.length t.data) t.dummy;
  Array.fill t.present 0 (Array.length t.present) 0;
  t.count <- 0

(* The loop bounds re-read [t.present] through [t] on every step, so a
   mid-iteration [set] that grows the backing store swaps in the new
   arrays transparently and keys added past the cursor are reached. *)
let iter t f =
  let w = ref 0 in
  while !w < Array.length t.present do
    if t.present.(!w) <> 0 then begin
      let base = !w * bits_per_word in
      for b = 0 to bits_per_word - 1 do
        (* [data] can be shorter than the bitmap's 32-key granularity
           (capacities under 32), and can grow mid-loop — re-check the
           live length for every slot. *)
        let k = base + b in
        if bound t k then f k t.data.(k)
      done
    end;
    incr w
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

let min_key t =
  let found = ref None in
  (try
     iter t (fun k _ ->
         found := Some k;
         raise Exit)
   with Exit -> ());
  !found

let max_key t = fold t ~init:None ~f:(fun _ k _ -> Some k)
