(* A socket is a thin generation-stamped handle over the host's
   connection arena: the hot scalars (state, buffer levels, flags)
   live in [Conn_arena] columns, and everything pointer-shaped
   (closures, payload text, the accept queue) lives in a lazily
   created cold record hanging off the arena's side table. Closing a
   socket frees its slot, which stales every outstanding handle in
   O(1); stale handles read as [Closed]/POLLNVAL and every mutating
   operation on them is inert. *)

type state = Listening | Established | Peer_closed | Reset | Closed

type t = { host : Host.t; slot : int; gen : int; id : int }

type waiter = { wake : Pollmask.t -> unit }

(* Arena state-column encoding; 0 marks a free slot. *)
let st_listening = 1
let st_established = 2
let st_peer_closed = 3
let st_reset = 4
let st_closed = 5

let int_of_state = function
  | Listening -> st_listening
  | Established -> st_established
  | Peer_closed -> st_peer_closed
  | Reset -> st_reset
  | Closed -> st_closed

let state_of_int = function
  | 1 -> Listening
  | 2 -> Established
  | 3 -> Peer_closed
  | 4 -> Reset
  | _ -> Closed

let flag_hints = 1
let flag_mem = 2

(* Token-addressed registration slabs for observers and watchers.
   Tokens are minted monotonically, entries stay token-sorted, and
   removal marks the entry dead after a binary search — O(log n)
   instead of the old O(n) [List.filter] rebuild — with dead entries
   compacted away before the slab grows. Iteration is newest-first to
   preserve the prepend-list semantics the seed had: additions made
   during a notification are not seen by that notification, removals
   are (entry records are shared between the live slab and a walk in
   progress). *)
module Regs = struct
  type 'f entry = { tok : int; mutable fn : 'f option }

  type 'f t = {
    mutable entries : 'f entry array; (* token-ascending; used prefix [0, len) *)
    mutable len : int;
    mutable count : int; (* live entries *)
    mutable next : int; (* next token to mint *)
  }

  let create () = { entries = [||]; len = 0; count = 0; next = 0 }

  let compact t =
    let j = ref 0 in
    for i = 0 to t.len - 1 do
      let e = t.entries.(i) in
      match e.fn with
      | Some _ ->
          t.entries.(!j) <- e;
          incr j
      | None -> ()
    done;
    t.len <- !j

  let add t f =
    let tok = t.next in
    t.next <- tok + 1;
    if t.len = Array.length t.entries then begin
      if t.count < t.len then compact t;
      if t.len = Array.length t.entries then begin
        let cap = Stdlib.max 4 (2 * Array.length t.entries) in
        let entries = Array.make cap { tok = 0; fn = None } in
        Array.blit t.entries 0 entries 0 t.len;
        t.entries <- entries
      end
    end;
    t.entries.(t.len) <- { tok; fn = Some f };
    t.len <- t.len + 1;
    t.count <- t.count + 1;
    tok

  let remove t tok =
    let lo = ref 0 and hi = ref (t.len - 1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let e = t.entries.(mid) in
      if e.tok = tok then begin
        (match e.fn with
        | Some _ ->
            e.fn <- None;
            t.count <- t.count - 1
        | None -> ());
        lo := !hi + 1
      end
      else if e.tok < tok then lo := mid + 1
      else hi := mid - 1
    done

  let count t = t.count

  let iter_rev t f =
    let entries = t.entries and len = t.len in
    for i = len - 1 downto 0 do
      match entries.(i).fn with Some g -> f g | None -> ()
    done
end

type cold_rec = {
  accept_q : t Queue.t;
  waitq : waiter Wait_queue.t;
  observers : (Pollmask.t -> unit) Regs.t;
  watchers : (unit -> unit) Regs.t;
  mutable payload : Buffer.t option;
  mutable on_send : int -> unit;
  mutable on_close : unit -> unit;
  mutable ring : Zc_ring.t option;
  (* Per-instance backend state (epoll interest, /dev/poll backmap
     tokens, RT-signal binding), keyed by attach key. Fixed slots
     rather than an assoc list: every lookup sits on certified
     O(ready)/O(active) scan paths, so it must be structurally O(1) —
     and a socket is only ever watched by its process's one backend
     plus at most an RT-signal binding (hybrid's polling mode), so
     three slots never fill. Key 0 = slot empty. Dropped wholesale
     when the arena slot frees. *)
  mutable a0_key : int;
  mutable a0 : Conn_arena.cold;
  mutable a1_key : int;
  mutable a1 : Conn_arena.cold;
  mutable a2_key : int;
  mutable a2 : Conn_arena.cold;
}

type Conn_arena.cold += No_attachment

type Conn_arena.cold += Sock_cold of cold_rec

let arena t = t.host.Host.arena
let live t = Conn_arena.is_live (arena t) ~slot:t.slot ~gen:t.gen

let cold_opt t =
  match (arena t).Conn_arena.cold.(t.slot) with
  | Some (Sock_cold c) -> Some c
  | _ -> None

(* Only called on live handles. *)
let cold t =
  match (arena t).Conn_arena.cold.(t.slot) with
  | Some (Sock_cold c) -> c
  | _ ->
      let c =
        {
          accept_q = Queue.create ();
          waitq = Wait_queue.create ();
          observers = Regs.create ();
          watchers = Regs.create ();
          payload = None;
          on_send = (fun _ -> ());
          on_close = (fun () -> ());
          ring = None;
          a0_key = 0;
          a0 = No_attachment;
          a1_key = 0;
          a1 = No_attachment;
          a2_key = 0;
          a2 = No_attachment;
        }
      in
      (arena t).Conn_arena.cold.(t.slot) <- Some (Sock_cold c);
      c

(* Atomic so experiments running on separate domains (Domain_pool)
   never mint duplicate ids; the values themselves carry no meaning
   beyond identity within one host. *)
let next_id = Atomic.make 0

let make ~host ~backlog st =
  let a = host.Host.arena in
  let slot = Conn_arena.alloc a in
  let id = 1 + Atomic.fetch_and_add next_id 1 in
  a.Conn_arena.st.{slot} <- int_of_state st;
  a.Conn_arena.flags.{slot} <-
    (if host.Host.hints_by_default then flag_hints else 0);
  a.Conn_arena.sock_id.{slot} <- id;
  a.Conn_arena.backlog.{slot} <- backlog;
  a.Conn_arena.rcv_cap.{slot} <- 65536;
  a.Conn_arena.snd_cap.{slot} <- 65536;
  { host; slot; gen = a.Conn_arena.gen.{slot}; id }

let create_listening ~host ~backlog =
  if backlog <= 0 then invalid_arg "Socket.create_listening: backlog must be positive";
  make ~host ~backlog Listening

let create_established ~host = make ~host ~backlog:0 Established

let id t = t.id
let state t = if live t then state_of_int (arena t).Conn_arena.st.{t.slot} else Closed
let host t = t.host

let hints_supported t =
  live t && (arena t).Conn_arena.flags.{t.slot} land flag_hints <> 0

let notify_watchers t =
  match cold_opt t with
  | Some c -> Regs.iter_rev c.watchers (fun f -> f ())
  | None -> ()

(* Toggling hint support invalidates any idle certification a backend
   derived from it, so watchers must re-examine the socket. *)
let set_hints_supported t v =
  if live t then begin
    let a = arena t in
    let f = a.Conn_arena.flags.{t.slot} in
    a.Conn_arena.flags.{t.slot} <-
      (if v then f lor flag_hints else f land lnot flag_hints);
    notify_watchers t
  end

let status t =
  let open Pollmask in
  if not (live t) then pollnval
  else begin
    let a = arena t in
    let slot = t.slot in
    match a.Conn_arena.st.{slot} with
    | 1 (* Listening *) -> (
        match cold_opt t with
        | Some c when not (Queue.is_empty c.accept_q) -> pollin
        | Some _ | None -> empty)
    | 2 (* Established *) ->
        let r = if a.Conn_arena.rcv_level.{slot} = 0 then empty else pollin in
        let w =
          if a.Conn_arena.snd_cap.{slot} - a.Conn_arena.snd_level.{slot} > 0 then
            pollout
          else empty
        in
        union r w
    | 3 (* Peer_closed *) ->
        (* Readable: either buffered bytes or EOF. Half-close still
           allows writing. *)
        let w =
          if a.Conn_arena.snd_cap.{slot} - a.Conn_arena.snd_level.{slot} > 0 then
            pollout
          else empty
        in
        union (union pollin pollhup) w
    | 4 (* Reset *) -> union pollerr pollhup
    | _ (* Closed *) -> pollnval
  end

let driver_poll t =
  let c = t.host.Host.counters in
  c.Host.driver_polls <- c.Host.driver_polls + 1;
  ignore (Host.charge t.host t.host.Host.costs.Cost_model.driver_poll_callback);
  status t

let register_waiter t w = if live t then Wait_queue.register (cold t).waitq w

let unregister_waiter t w =
  match if live t then cold_opt t else None with
  | Some c -> Wait_queue.unregister c.waitq w
  | None -> false

let subscribe t f =
  if not (live t) then 0
  else begin
    let tok = Regs.add (cold t).observers f in
    (arena t).Conn_arena.obs_next.{t.slot} <- tok + 1;
    tok
  end

let unsubscribe t token =
  if live t then
    match cold_opt t with Some c -> Regs.remove c.observers token | None -> ()

let add_watcher t f =
  if not (live t) then 0
  else begin
    let tok = Regs.add (cold t).watchers f in
    (arena t).Conn_arena.watch_next.{t.slot} <- tok + 1;
    tok
  end

let remove_watcher t token =
  if live t then
    match cold_opt t with Some c -> Regs.remove c.watchers token | None -> ()

let waiter_count t =
  match if live t then cold_opt t else None with
  | Some c -> Wait_queue.length c.waitq
  | None -> 0

let observer_count t =
  match if live t then cold_opt t else None with
  | Some c -> Regs.count c.observers
  | None -> 0

(* Post a readiness edge: wake classic-poll sleepers (charging wake
   cost per task) and notify observers (charging the backmap read lock
   when the driver participates in hinting). Only ever called on a
   live socket. *)
let post t mask =
  match cold_opt t with
  | None -> ()
  | Some c ->
      let costs = t.host.Host.costs in
      let counters = t.host.Host.counters in
      Regs.iter_rev c.watchers (fun f -> f ());
      let woken =
        Wait_queue.wake c.waitq ~policy:t.host.Host.wake_policy (fun w ->
            counters.Host.wait_queue_wakes <- counters.Host.wait_queue_wakes + 1;
            ignore (Host.charge t.host costs.Cost_model.wait_queue_wake);
            w.wake mask)
      in
      ignore woken;
      if Regs.count c.observers > 0 then begin
        if hints_supported t then
          ignore (Host.charge t.host costs.Cost_model.backmap_read_lock);
        Regs.iter_rev c.observers (fun f -> f mask)
      end

let deliver t ~bytes_len ~payload =
  if bytes_len < 0 then invalid_arg "Sock_buf.push: negative size";
  if not (live t) then 0
  else begin
    let a = arena t in
    let slot = t.slot in
    match a.Conn_arena.st.{slot} with
    | 2 | 3 ->
        let costs = t.host.Host.costs in
        let counters = t.host.Host.counters in
        counters.Host.softirqs <- counters.Host.softirqs + 1;
        ignore (Host.charge t.host costs.Cost_model.softirq_per_packet);
        let level = a.Conn_arena.rcv_level.{slot} in
        let was_empty = level = 0 in
        let accepted = Stdlib.min bytes_len (a.Conn_arena.rcv_cap.{slot} - level) in
        a.Conn_arena.rcv_level.{slot} <- level + accepted;
        if String.length payload > 0 then begin
          let c = cold t in
          let buf =
            match c.payload with
            | Some b -> b
            | None ->
                let b = Buffer.create 64 in
                c.payload <- Some b;
                b
          in
          Buffer.add_string buf payload
        end;
        if accepted > 0 && was_empty then post t Pollmask.pollin;
        accepted
    | _ -> 0
  end

let enqueue_accept t peer =
  if not (live t) then false
  else begin
    let a = arena t in
    match a.Conn_arena.st.{t.slot} with
    | 1 ->
        let c = cold t in
        if Queue.length c.accept_q >= a.Conn_arena.backlog.{t.slot} then begin
          let counters = t.host.Host.counters in
          counters.Host.connections_refused <-
            counters.Host.connections_refused + 1;
          false
        end
        else begin
          let was_empty = Queue.is_empty c.accept_q in
          Queue.add peer c.accept_q;
          if was_empty then post t Pollmask.pollin;
          true
        end
    | _ -> false
  end

let peer_closed t =
  if live t then begin
    let a = arena t in
    match a.Conn_arena.st.{t.slot} with
    | 2 ->
        a.Conn_arena.st.{t.slot} <- st_peer_closed;
        post t (Pollmask.union Pollmask.pollin Pollmask.pollhup)
    | _ -> ()
  end

let reset t =
  if live t then begin
    let a = arena t in
    match a.Conn_arena.st.{t.slot} with
    | 1 | 2 | 3 ->
        a.Conn_arena.st.{t.slot} <- st_reset;
        post t Pollmask.pollerr
    | _ -> ()
  end

let release_send_space t n =
  if n > 0 && live t then begin
    let a = arena t in
    let slot = t.slot in
    let level = a.Conn_arena.snd_level.{slot} in
    let was_full = a.Conn_arena.snd_cap.{slot} - level = 0 in
    let level' = level - Stdlib.min n level in
    a.Conn_arena.snd_level.{slot} <- level';
    (* Transmit completion unpins ring pages the wire has carried.
       The send buffer drains FIFO and copied-through bytes (the
       selective mode's headers) sit in front of mapped ones, so
       keeping [pinned <= level'] unpins exactly the mapped bytes
       that have left the buffer. *)
    (match cold_opt t with
    | Some { ring = Some r; _ } ->
        let pinned = Zc_ring.pinned r in
        if pinned > level' then ignore (Zc_ring.unmap r ~bytes:(pinned - level'))
    | Some _ | None -> ());
    match a.Conn_arena.st.{slot} with
    | 2 | 3 -> if was_full then post t Pollmask.pollout
    | _ -> ()
  end

let set_transport t ~on_send ~on_close =
  if live t then begin
    let c = cold t in
    c.on_send <- on_send;
    c.on_close <- on_close
  end

let transport_send t n =
  match if live t then cold_opt t else None with
  | Some c -> c.on_send n
  | None -> ()

let read_all t =
  if not (live t) then (0, "")
  else begin
    let a = arena t in
    let bytes = a.Conn_arena.rcv_level.{t.slot} in
    a.Conn_arena.rcv_level.{t.slot} <- 0;
    if bytes > 0 then notify_watchers t;
    let text =
      match cold_opt t with
      | Some { payload = Some b; _ } ->
          let s = Buffer.contents b in
          Buffer.clear b;
          s
      | Some _ | None -> ""
    in
    (bytes, text)
  end

(* Fill the send buffer by up to [n] bytes on a live, writable socket.
   Filling it to the brim clears POLLOUT, a status change watchers
   must see. *)
let claim_send_space t n =
  let a = arena t in
  let slot = t.slot in
  let level = a.Conn_arena.snd_level.{slot} in
  let room = a.Conn_arena.snd_cap.{slot} - level in
  let accepted = Stdlib.min n room in
  a.Conn_arena.snd_level.{slot} <- level + accepted;
  if accepted > 0 && accepted = room then notify_watchers t;
  accepted

let write_reserve t n =
  if n < 0 then invalid_arg "Sock_buf.push: negative size";
  if not (live t) then 0
  else begin
    match (arena t).Conn_arena.st.{t.slot} with
    | 2 | 3 -> claim_send_space t n
    | _ -> 0
  end

(* Shared-ring transmit. The ring is sized to the send buffer (one
   slot-page granule at a time, [snd_cap] total), so a successful
   [ring_reserve] can always pin what the buffer accepted. This module
   owns both halves of the ring's lifecycle pairs: [ring_attach]
   creates ([Zc_ring.create]) and [close]/[discard] destroy
   ([Zc_ring.destroy]); [ring_reserve] maps and [release_send_space]
   unmaps. *)
let ring_attach t ~slot_bytes =
  if slot_bytes <= 0 then invalid_arg "Socket.ring_attach: slot_bytes must be positive";
  if not (live t) then false
  else begin
    let a = arena t in
    match a.Conn_arena.st.{t.slot} with
    | 2 | 3 -> (
        let c = cold t in
        match c.ring with
        | Some _ -> true
        | None ->
            let cap = a.Conn_arena.snd_cap.{t.slot} in
            let slots = Stdlib.max 1 ((cap + slot_bytes - 1) / slot_bytes) in
            (match Zc_ring.create ~host:t.host ~slots ~slot_bytes with
            | Some r ->
                c.ring <- Some r;
                true
            | None -> false))
    | _ -> false
  end

let ring t =
  match if live t then cold_opt t else None with
  | Some c -> c.ring
  | None -> None

(* Like [write_reserve], but the accepted bytes beyond the first
   [copy_bytes] are pinned into the transmit ring; returns the bytes
   accepted and the pages freshly occupied (for the caller to charge).
   [None] when no ring is attached. *)
let ring_reserve t n ~copy_bytes =
  if n < 0 || copy_bytes < 0 then invalid_arg "Socket.ring_reserve: negative size";
  match if live t then cold_opt t else None with
  | None | Some { ring = None; _ } -> None
  | Some { ring = Some r; _ } ->
      let a = arena t in
      let slot = t.slot in
      (match a.Conn_arena.st.{slot} with
      | 2 | 3 ->
          let accepted = claim_send_space t n in
          let mapped = Stdlib.max 0 (accepted - copy_bytes) in
          let pages = Zc_ring.map r ~bytes:mapped in
          Some (accepted, pages)
      | _ -> Some (0, 0))

let accept_pop t =
  if live t && (arena t).Conn_arena.st.{t.slot} = st_listening then
    match cold_opt t with
    | Some c ->
        let peer = Queue.take_opt c.accept_q in
        (match peer with
        | Some _ when Queue.is_empty c.accept_q -> notify_watchers t
        | Some _ | None -> ());
        peer
    | None -> None
  else None

let accept_queue_length t =
  match if live t then cold_opt t else None with
  | Some c -> Queue.length c.accept_q
  | None -> 0

(* Kernel-memory accounting (modeled): accept() reserves the fixed
   socket struct plus both buffer capacities; close/discard release
   it. The charged flag makes release idempotent. The resource-pairing
   lint rule holds every [Host.mem_reserve] caller outside Host to the
   matching [Host.mem_release]: this module satisfies the obligation
   because both [close] and [discard] funnel through
   [release_kernel_memory], and those release sites must stay live —
   a release reachable only from dead code does not discharge it. *)
let reserve_kernel_memory t =
  if not (live t) then false
  else begin
    let a = arena t in
    let slot = t.slot in
    if a.Conn_arena.flags.{slot} land flag_mem <> 0 then true
    else begin
      let bytes =
        t.host.Host.costs.Cost_model.sock_struct_bytes
        + a.Conn_arena.rcv_cap.{slot}
        + a.Conn_arena.snd_cap.{slot}
      in
      if Host.mem_reserve t.host bytes then begin
        a.Conn_arena.flags.{slot} <- a.Conn_arena.flags.{slot} lor flag_mem;
        a.Conn_arena.mem_bytes.{slot} <- bytes;
        true
      end
      else false
    end
  end

let release_kernel_memory t =
  let a = arena t in
  let slot = t.slot in
  if a.Conn_arena.flags.{slot} land flag_mem <> 0 then begin
    a.Conn_arena.flags.{slot} <- a.Conn_arena.flags.{slot} land lnot flag_mem;
    Host.mem_release t.host a.Conn_arena.mem_bytes.{slot};
    a.Conn_arena.mem_bytes.{slot} <- 0
  end

let kernel_memory_bytes t =
  if live t then (arena t).Conn_arena.mem_bytes.{t.slot} else 0

(* Arena-native per-connection backend state. Each kernel facility
   that used to keep a side table of records (epoll's interest table,
   /dev/poll's backmap subscriptions, the RT-signal bindings) mints
   one key per instance and hangs its per-connection record off the
   socket's cold slot instead; freeing the slot drops every
   attachment with it, so backend state can never outlive the
   connection it describes. *)
let next_attach_key = Atomic.make 0
let new_attach_key () = 1 + Atomic.fetch_and_add next_attach_key 1

let attach t ~key v =
  if live t then begin
    let c = cold t in
    if c.a0_key = key || c.a0_key = 0 then begin
      c.a0_key <- key;
      c.a0 <- v
    end
    else if c.a1_key = key || c.a1_key = 0 then begin
      c.a1_key <- key;
      c.a1 <- v
    end
    else if c.a2_key = key || c.a2_key = 0 then begin
      c.a2_key <- key;
      c.a2 <- v
    end
    else invalid_arg "Socket.attach: attachment slots exhausted"
  end

let attachment t ~key =
  match if live t then cold_opt t else None with
  | Some c ->
      if c.a0_key = key then Some c.a0
      else if c.a1_key = key then Some c.a1
      else if c.a2_key = key then Some c.a2
      else None
  | None -> None

let detach t ~key =
  if live t then
    match cold_opt t with
    | Some c ->
        if c.a0_key = key then begin
          c.a0_key <- 0;
          c.a0 <- No_attachment
        end
        else if c.a1_key = key then begin
          c.a1_key <- 0;
          c.a1 <- No_attachment
        end
        else if c.a2_key = key then begin
          c.a2_key <- 0;
          c.a2 <- No_attachment
        end
    | None -> ()

let set_tcp_link t cid = if live t then (arena t).Conn_arena.tcp_id.{t.slot} <- cid
let tcp_link t = if live t then (arena t).Conn_arena.tcp_id.{t.slot} else 0

(* Reclaim a connection that never reached an application fd (refused
   handshake, accept-path drop) with zero observable behaviour: no
   edge is posted, no hook runs, no cost is charged — only the memory
   reservation and the slot come back. *)
let release_ring t =
  match cold_opt t with
  | Some ({ ring = Some r; _ } as c) ->
      Zc_ring.destroy r;
      c.ring <- None
  | Some _ | None -> ()

let discard t =
  if live t then begin
    release_ring t;
    release_kernel_memory t;
    Conn_arena.free (arena t) t.slot
  end

let close t =
  if live t then begin
    let a = arena t in
    match a.Conn_arena.st.{t.slot} with
    | 5 -> ()
    | _ ->
        a.Conn_arena.st.{t.slot} <- st_closed;
        a.Conn_arena.rcv_level.{t.slot} <- 0;
        a.Conn_arena.snd_level.{t.slot} <- 0;
        let on_close =
          match cold_opt t with
          | Some c ->
              (match c.payload with Some b -> Buffer.clear b | None -> ());
              Queue.clear c.accept_q;
              c.on_close
          | None -> fun () -> ()
        in
        post t Pollmask.pollnval;
        on_close ();
        (* Release everything the connection pinned: the transmit
           ring, the memory reservation, the cold record (closures,
           payload buffer) and the slot itself. Outstanding handles go
           stale and read as [Closed]. *)
        release_ring t;
        release_kernel_memory t;
        Conn_arena.free a t.slot
  end

let pp_state ppf = function
  | Listening -> Fmt.string ppf "LISTENING"
  | Established -> Fmt.string ppf "ESTABLISHED"
  | Peer_closed -> Fmt.string ppf "PEER_CLOSED"
  | Reset -> Fmt.string ppf "RESET"
  | Closed -> Fmt.string ppf "CLOSED"
