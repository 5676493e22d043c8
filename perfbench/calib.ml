(* A fixed reference workload that measures how fast the host runs at
   the moment it runs.

   The benchmark's host shares its cores, caches and memory bandwidth
   with other work, and its speed drifts by a third or more over
   stretches of seconds to minutes. A time measured across such a
   stretch says as much about the neighbours as about the program.
   Slices of this workload run between the simulated worlds; a host
   time of the program divided by the slices' mean time does not move
   with the host's speed, only with the program's.

   The slice does what the simulator's event loop does most: it pops
   timed entries off a binary heap, pushes new ones, and updates
   per-connection state scattered over a table. It allocates nothing,
   so it leaves the program's heap, its collector and its allocation
   count alone. Its code and inputs are fixed, so only the host can
   change how long it takes. *)

let live = 16_384
let table_words = 1 lsl 17
let events = 40_000
(* Outside the OCaml heap, so the program's collector neither scans
   them nor counts them as live data when it sizes the heap. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints n : ints =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a 0;
  a

let at = ints live
let conn = ints live
let table = ints table_words
let size = ref 0
let rng = ref 0

let next () =
  let x = !rng in
  let x = x lxor ((x lsl 13) land 0xFFFF_FFFF) in
  let x = x lxor (x lsr 17) in
  let x = x lxor ((x lsl 5) land 0xFFFF_FFFF) in
  rng := x;
  x

let push t c =
  let i = ref !size in
  incr size;
  while !i > 0 && at.{(!i - 1) / 2} > t do
    let p = (!i - 1) / 2 in
    at.{!i} <- at.{p};
    conn.{!i} <- conn.{p};
    i := p
  done;
  at.{!i} <- t;
  conn.{!i} <- c

(* Removes the earliest entry; [at.{0}] and [conn.{0}] must be read
   before. *)
let pop () =
  decr size;
  let lt = at.{!size} and lc = conn.{!size} in
  let i = ref 0 and go = ref true in
  while !go do
    let l = (2 * !i) + 1 in
    if l >= !size then go := false
    else begin
      let k = if l + 1 < !size && at.{l + 1} < at.{l} then l + 1 else l in
      if at.{k} < lt then begin
        at.{!i} <- at.{k};
        conn.{!i} <- conn.{k};
        i := k
      end
      else go := false
    end
  done;
  at.{!i} <- lt;
  conn.{!i} <- lc

let work () =
  rng := 0x2545F491;
  size := 0;
  Bigarray.Array1.fill table 0;
  for k = 1 to live do
    push (next () land 0xFFFFF) k
  done;
  let sum = ref 0 in
  for _ = 1 to events do
    let t = at.{0} and c = conn.{0} in
    pop ();
    let j = ((c * 0x9E3779B1) + next ()) land (table_words - 1) in
    table.{j} <- table.{j} + c;
    sum := !sum + table.{j};
    push (t + (next () land 0xFFFFF)) (c + 1)
  done;
  !sum

(* Host seconds one slice takes now. *)
let slice () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  Unix.gettimeofday () -. t0

(* A slice's time on the reference host: a 2-vCPU x86-64 container on
   a shared machine, OCaml 5.1.1, at a quiet moment. *)
let nominal_s = 0.015

(* The factor that turns host seconds measured beside [slices] into
   reference seconds: seconds on a host where a slice takes
   [nominal_s]. *)
let scale slices =
  match slices with
  | [] -> invalid_arg "Calib.scale: no slices"
  | _ ->
      let n = float_of_int (List.length slices) in
      nominal_s /. (List.fold_left ( +. ) 0. slices /. n)
