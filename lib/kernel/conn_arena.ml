(* Struct-of-arrays connection arena.

   Hot per-connection scalar state lives in Bigarray columns indexed
   by a dense slot; slots are recycled through a free-list stack and a
   per-slot generation stamp (the [Event_queue] idiom), so a handle
   {slot, gen} to a freed connection goes stale in O(1). An idle
   established connection then costs ~70 bytes of column storage plus
   one [cold] pointer word instead of a dozen heap blocks.

   The arena knows nothing about sockets: [Socket] extends [cold] with
   its lazily-populated cold record (closures, payload buffer, accept
   queue) and interprets the columns. Column loads/stores are plain
   Bigarray accesses — callers index with a slot they validated
   against [gen]; raw slots must never outlive the handle that minted
   them (see the arena-slot lint rule). *)

open Bigarray

type int_col = (int, int_elt, c_layout) Array1.t
type byte_col = (int, int8_unsigned_elt, c_layout) Array1.t

type cold = ..
type cold += No_cold

type t = {
  (* Columns are parallel: index [slot < high_water]. *)
  mutable st : byte_col;  (* 0 = free; else Socket state enum 1..5 *)
  mutable flags : byte_col;  (* bit0 hints_supported, bit1 mem charged *)
  mutable gen : int_col;  (* generation stamp; bumped on free *)
  mutable sock_id : int_col;
  mutable backlog : int_col;
  mutable rcv_level : int_col;
  mutable rcv_cap : int_col;
  mutable snd_level : int_col;
  mutable snd_cap : int_col;
  mutable mem_bytes : int_col;  (* modeled kernel bytes charged to Host *)
  mutable cold : cold array;  (* [No_cold] when none *)
  mutable free : int array;  (* stack of reusable slot indices *)
  mutable free_len : int;
  mutable high_water : int;  (* slots ever handed out *)
  mutable live : int;
}

let make_int_col n = Array1.create int c_layout n
let make_byte_col n =
  let a = Array1.create int8_unsigned c_layout n in
  Array1.fill a 0;
  a

let create ?(initial_capacity = 64) () =
  let cap = Stdlib.max 1 initial_capacity in
  {
    st = make_byte_col cap;
    flags = make_byte_col cap;
    gen = (let a = make_int_col cap in Array1.fill a 0; a);
    sock_id = make_int_col cap;
    backlog = make_int_col cap;
    rcv_level = make_int_col cap;
    rcv_cap = make_int_col cap;
    snd_level = make_int_col cap;
    snd_cap = make_int_col cap;
    mem_bytes = make_int_col cap;
    cold = Array.make cap No_cold;
    free = Array.make cap 0;
    free_len = 0;
    high_water = 0;
    live = 0;
  }

let capacity t = Array1.dim t.st

let grow_int_col col cap =
  let c = make_int_col (2 * cap) in
  Array1.blit col (Array1.sub c 0 cap);
  c

let grow_byte_col col cap =
  let c = make_byte_col (2 * cap) in
  Array1.blit col (Array1.sub c 0 cap);
  c

let grow t =
  let cap = capacity t in
  t.st <- grow_byte_col t.st cap;
  t.flags <- grow_byte_col t.flags cap;
  t.gen <- grow_int_col t.gen cap;
  t.sock_id <- grow_int_col t.sock_id cap;
  t.backlog <- grow_int_col t.backlog cap;
  t.rcv_level <- grow_int_col t.rcv_level cap;
  t.rcv_cap <- grow_int_col t.rcv_cap cap;
  t.snd_level <- grow_int_col t.snd_level cap;
  t.snd_cap <- grow_int_col t.snd_cap cap;
  t.mem_bytes <- grow_int_col t.mem_bytes cap;
  let cold = Array.make (2 * cap) No_cold in
  Array.blit t.cold 0 cold 0 cap;
  t.cold <- cold

(* Hands back a slot with every column zeroed except [gen], which
   survives recycling (staleness depends on it). The caller stamps the
   state/capacity columns and packs {slot, gen} into its handle before
   the slot can escape. *)
let alloc t =
  let slot =
    if t.free_len > 0 then begin
      t.free_len <- t.free_len - 1;
      t.free.(t.free_len)
    end
    else begin
      let slot = t.high_water in
      if slot = capacity t then grow t;
      t.high_water <- slot + 1;
      slot
    end
  in
  t.st.{slot} <- 0;
  t.flags.{slot} <- 0;
  t.sock_id.{slot} <- 0;
  t.backlog.{slot} <- 0;
  t.rcv_level.{slot} <- 0;
  t.rcv_cap.{slot} <- 0;
  t.snd_level.{slot} <- 0;
  t.snd_cap.{slot} <- 0;
  t.mem_bytes.{slot} <- 0;
  t.live <- t.live + 1;
  slot

(* Bumping the generation stales every outstanding handle in O(1). *)
let free t slot =
  t.gen.{slot} <- t.gen.{slot} + 1;
  t.st.{slot} <- 0;
  t.cold.(slot) <- No_cold;
  let cap = Array.length t.free in
  if t.free_len = cap then begin
    let free = Array.make (2 * cap) 0 in
    Array.blit t.free 0 free 0 cap;
    t.free <- free
  end;
  t.free.(t.free_len) <- slot;
  t.free_len <- t.free_len + 1;
  t.live <- t.live - 1

let is_live t ~slot ~gen = t.gen.{slot} = gen

let live_count t = t.live
let high_water t = t.high_water
