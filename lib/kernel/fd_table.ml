open Sio_sim

type 'a t = {
  limit : int;
  slots : 'a option Fd_map.t; (* stored as [Some v]: lookups return it as is *)
  mutable search_from : int; (* lower bound on the lowest free slot *)
}

let create ?(limit = 1024) () =
  if limit <= 0 then invalid_arg "Fd_table.create: limit must be positive";
  { limit; slots = Fd_map.create ~initial_capacity:64 ~dummy:None (); search_from = 0 }

let limit t = t.limit

let alloc t v =
  if Fd_map.length t.slots >= t.limit then Error `Emfile
  else begin
    (* search_from is maintained as a lower bound: it only moves back
       on close, so this scan is amortized O(1). *)
    let rec find_free fd = if Fd_map.mem t.slots fd then find_free (fd + 1) else fd in
    let fd = find_free t.search_from in
    Fd_map.set t.slots fd (Some v);
    t.search_from <- fd + 1;
    Ok fd
  end

let alloc_exn t v =
  match alloc t v with
  | Ok fd -> fd
  | Error `Emfile -> failwith "Fd_table.alloc_exn: out of descriptors"

let find t fd = Fd_map.get t.slots fd

let find_exn t fd =
  match find t fd with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Fd_table.find_exn: fd %d not open" fd)

let set t fd v =
  if not (Fd_map.mem t.slots fd) then
    invalid_arg (Printf.sprintf "Fd_table.set: fd %d not open" fd)
  else Fd_map.set t.slots fd (Some v)

let close t fd =
  let v = Fd_map.get t.slots fd in
  (match v with
  | Some _ ->
      ignore (Fd_map.remove t.slots fd);
      if fd < t.search_from then t.search_from <- fd
  | None -> ());
  v

let is_open t fd = Fd_map.mem t.slots fd
let count t = Fd_map.length t.slots

(* Fd_map iterates in ascending fd order — a function of the open set
   alone, never of allocation history — so letting the order escape to
   callers is deterministic by construction. *)
let iter t f = Fd_map.iter t.slots (fun fd v -> match v with Some v -> f fd v | None -> ())

let fold t ~init ~f =
  Fd_map.fold t.slots ~init ~f:(fun acc fd v ->
      match v with Some v -> f acc fd v | None -> acc)
