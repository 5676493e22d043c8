open Sio_sim

type result = { fd : int; revents : Pollmask.t }

(* Bits always reported regardless of subscription. *)
let forced = Pollmask.union Pollmask.pollerr (Pollmask.union Pollmask.pollhup Pollmask.pollnval)

let scan_cost ~host ~n_interests =
  let costs = host.Host.costs in
  Time.mul
    (Time.add costs.Cost_model.poll_copyin_per_fd costs.Cost_model.driver_poll_callback)
    n_interests

(* One pass over the interest list, asking each driver for status.
   The driver-callback cost is charged inside [Socket.driver_poll];
   missing descriptors only cost the copy-in. Results accumulate into
   the caller's reusable buffer (cleared here), so the rescan-per-wake
   loop below allocates nothing per pass. *)
let[@complexity "O(interests)"] scan ~host ~lookup ~interests ~ready =
  let costs = host.Host.costs in
  Ready_buffer.clear ready;
  List.iter
    (fun (fd, events) ->
      ignore (Host.charge host costs.Cost_model.poll_copyin_per_fd);
      let revents =
        match lookup fd with
        | None -> Pollmask.pollnval
        | Some sock ->
            Pollmask.inter (Socket.driver_poll sock) (Pollmask.union events forced)
      in
      if not (Pollmask.is_empty revents) then Ready_buffer.push ready { fd; revents })
    interests;
  Ready_buffer.length ready

let[@complexity "O(interests)"] wait ~host ~lookup ~interests ~timeout ~k =
  let costs = host.Host.costs in
  let counters = host.Host.counters in
  counters.Host.syscalls <- counters.Host.syscalls + 1;
  ignore (Host.charge host costs.Cost_model.syscall_entry);
  let ready = Ready_buffer.create ~initial_capacity:16 () in
  let finish results =
    ignore
      (Host.charge host
         (Time.mul costs.Cost_model.poll_copyout_per_ready (List.length results)));
    Host.charge_run host ~cost:Time.zero (fun () -> k results)
  in
  let finish_ready () = finish (Ready_buffer.to_list ready) in
  if scan ~host ~lookup ~interests ~ready > 0 then finish_ready ()
  else
    match timeout with
    | Some t when t <= Time.zero -> finish []
    | _ ->
        (* Sleep: register on every socket's wait queue. *)
        let sockets = List.filter_map (fun (fd, _) -> lookup fd) interests in
        let n = List.length interests in
        ignore (Host.charge host (Time.mul costs.Cost_model.wait_queue_register n));
        let timer = ref None in
        let waiter_ref = ref None in
        let cleanup () =
          (match !waiter_ref with
          | Some w -> List.iter (fun s -> ignore (Socket.unregister_waiter s w)) sockets
          | None -> ());
          ignore (Host.charge host (Time.mul costs.Cost_model.wait_queue_unregister n));
          match !timer with
          | Some h ->
              Engine.cancel host.Host.engine h;
              timer := None
          | None -> ()
        in
        let rec on_wake _mask =
          cleanup ();
          (* Wakeup rescans the whole set, as Linux 2.2 does. *)
          if scan ~host ~lookup ~interests ~ready > 0 then finish_ready ()
          else begin
            (* Spurious wakeup (event consumed elsewhere): sleep again. *)
            let w = { Socket.wake = on_wake } in
            waiter_ref := Some w;
            List.iter (fun s -> Socket.register_waiter s w) sockets;
            ignore (Host.charge host (Time.mul costs.Cost_model.wait_queue_register n));
            arm_timer ()
          end
        and arm_timer () =
          match timeout with
          | None -> ()
          | Some t ->
              timer :=
                Some
                  (Engine.after host.Host.engine t (fun () ->
                       timer := None;
                       cleanup ();
                       finish []))
        in
        let w = { Socket.wake = on_wake } in
        waiter_ref := Some w;
        List.iter (fun s -> Socket.register_waiter s w) sockets;
        arm_timer ()

(* A persistent poll set: the interest list a server passes to poll()
   on every loop iteration, kept between calls so the host-side scan
   can be O(changed) while charging the classic O(n) costs analytically
   (DESIGN.md §5: charged nanoseconds and counters are unchanged; only
   the host container changed). Results still come back in interest
   insertion order, exactly as [wait] reports them.

   Each entry caches its last probe. An entry is clean when it is
   bound to the live socket its fd resolves to and nothing has changed
   that socket's status since the probe; the socket's watcher marks it
   dirty on every status change, so a clean entry's cached revents
   equal a fresh probe. A scan probes only the dirty entries. *)
module Pset = struct
  type entry = {
    fd : int;
    mutable rank : int; (* insertion order; re-adding after remove re-ranks *)
    mutable events : Pollmask.t;
    mutable bound : (Socket.t * int) option; (* watched socket, token *)
    mutable last : result; (* the last probe's answer, reported as is *)
  }

  (* The state of a poll() call over the set that went to sleep.
     [sockets] is the snapshot, taken when the call first sleeps, of
     the sockets it registers on. *)
  type call = {
    mutable n : int; (* interests charged per (un)registration *)
    sockets : Socket.t Ready_buffer.t;
    mutable results : result Ready_buffer.t;
    mutable k : result Ready_buffer.t -> unit;
  }

  let new_call () =
    {
      n = 0;
      sockets = Ready_buffer.create ();
      results = Ready_buffer.create ~initial_capacity:1 ();
      k = ignore;
    }

  type pset = {
    host : Host.t;
    lookup : int -> Socket.t option;
    entries : entry Fd_map.t; (* by fd *)
    members : entry Fd_map.t; (* every entry, by rank *)
    active : entry Fd_map.t;
        (* By fd, the dirty entries: new or re-set interests, sockets
           whose status changed since their probe, and descriptors with
           no socket (POLLNVAL is re-probed every scan). Every other
           entry has a live, watcher-bound socket, so its probe would
           charge exactly copy-in + driver callback and answer [last]. *)
    ready : entry Fd_map.t; (* by rank, the entries whose [last] is ready *)
    bufs : result Ready_buffer.pool;
    mutable next_rank : int;
    mutable sleepers : call Sleeper.pool;
  }

  (* The maps' filler for unbound slots; never read or written. *)
  let no_entry =
    { fd = -1; rank = -1; events = Pollmask.empty; bound = None; last = { fd = -1; revents = Pollmask.empty } }

  let create_fields ~host ~lookup ~sleepers =
    {
      host;
      lookup;
      entries = Fd_map.create ~initial_capacity:64 ~dummy:no_entry ();
      members = Fd_map.create ~initial_capacity:64 ~dummy:no_entry ();
      active = Fd_map.create ~initial_capacity:64 ~dummy:no_entry ();
      ready = Fd_map.create ~initial_capacity:64 ~dummy:no_entry ();
      bufs = Ready_buffer.pool ();
      next_rank = 0;
      sleepers;
    }

  let mark_dirty s e = if not (Fd_map.mem s.active e.fd) then Fd_map.set s.active e.fd e

  let unbind e =
    match e.bound with
    | Some (sock, wtoken) ->
        Socket.remove_watcher sock wtoken;
        e.bound <- None
    | None -> ()

  (* Renumber the ranks densely, keeping their order, so the rank-keyed
     maps stay about as large as the set. Ranks only move down, onto
     keys the walk has already passed. *)
  let compact s =
    let next = ref 0 in
    Fd_map.iter s.members (fun rank e ->
        if rank <> !next then begin
          ignore (Fd_map.remove s.members rank);
          Fd_map.set s.members !next e;
          if Fd_map.remove s.ready rank then Fd_map.set s.ready !next e;
          e.rank <- !next
        end;
        incr next);
    s.next_rank <- !next

  let set s fd events =
    if Fd_map.mem s.entries fd then begin
      let e = Fd_map.get s.entries fd in
      e.events <- events;
      mark_dirty s e
    end
    else begin
        if s.next_rank >= (2 * Fd_map.length s.entries) + 64 then compact s;
        let e =
          {
            fd;
            rank = s.next_rank;
            events;
            bound = None;
            last = { fd; revents = Pollmask.empty };
          }
        in
        s.next_rank <- s.next_rank + 1;
        Fd_map.set s.entries fd e;
        Fd_map.set s.members e.rank e;
        Fd_map.set s.active fd e
    end

  let remove s fd =
    if Fd_map.mem s.entries fd then begin
      let e = Fd_map.get s.entries fd in
      unbind e;
      ignore (Fd_map.remove s.entries fd);
      ignore (Fd_map.remove s.members e.rank);
      ignore (Fd_map.remove s.active fd);
      ignore (Fd_map.remove s.ready e.rank)
    end

  let mem s fd = Fd_map.mem s.entries fd
  let length s = Fd_map.length s.entries
  let active_fds s = List.map fst (Fd_map.to_list s.active)

  (* One charged probe, identical to the per-fd body of [scan], cached
     in the entry. Binds the watcher to the entry's current socket
     (descriptor reuse rebinds) and leaves the entry clean unless the
     descriptor has no socket. *)
  let probe s e =
    let costs = s.host.Host.costs in
    ignore (Host.charge s.host costs.Cost_model.poll_copyin_per_fd);
    let revents =
      match s.lookup e.fd with
      | None -> Pollmask.pollnval
      | Some sock ->
          (match e.bound with
          | Some (s0, _) when Socket.id s0 = Socket.id sock -> ()
          | Some _ | None ->
              unbind e;
              let wtoken = Socket.add_watcher sock (fun () -> mark_dirty s e) in
              e.bound <- Some (sock, wtoken));
          ignore (Fd_map.remove s.active e.fd);
          Pollmask.inter (Socket.driver_poll sock) (Pollmask.union e.events forced)
    in
    if not (Pollmask.equal revents e.last.revents) then begin
      let was_ready = not (Pollmask.is_empty e.last.revents) in
      e.last <- { fd = e.fd; revents };
      if not was_ready then Fd_map.set s.ready e.rank e
      else if Pollmask.is_empty revents then ignore (Fd_map.remove s.ready e.rank)
    end

  (* O(changed) scan: clean entries are charged in one batch (each
     would cost copy-in + driver callback and bump driver_polls), dirty
     entries are probed one by one, and the ready entries are reported
     from their cached answers in rank order, so results match [scan]
     byte for byte. *)
  let[@complexity "O(active)"] scan_set s ready =
    let costs = s.host.Host.costs in
    let counters = s.host.Host.counters in
    Ready_buffer.clear ready;
    let clean = Fd_map.length s.entries - Fd_map.length s.active in
    if clean > 0 then begin
      ignore
        (Cost_model.charge_batch s.host.Host.cpu
           ~cost:
             (Time.add costs.Cost_model.poll_copyin_per_fd
                costs.Cost_model.driver_poll_callback)
           ~count:clean);
      counters.Host.driver_polls <- counters.Host.driver_polls + clean
    end;
    Fd_map.iter s.active (fun _ e -> probe s e);
    Fd_map.iter s.ready (fun _ e -> Ready_buffer.push ready e.last);
    Ready_buffer.length ready

  (* Hand [ready] to [k] once the copy-out is charged; the buffer is
     lent until [k] returns. *)
  let finish s ready k =
    let host = s.host in
    ignore
      (Host.charge host
         (Time.mul host.Host.costs.Cost_model.poll_copyout_per_ready
            (Ready_buffer.length ready)));
    Host.charge_run host ~cost:Time.zero (fun () ->
        k ready;
        Ready_buffer.release s.bufs ready)

  (* Registration and removal walk the snapshot from the highest fd
     down. *)
  let register_all s (sl : call Sleeper.t) =
    let sockets = sl.call.sockets in
    for i = Ready_buffer.length sockets - 1 downto 0 do
      Socket.register_waiter (Ready_buffer.get sockets i) sl.waiter
    done;
    ignore
      (Host.charge s.host
         (Time.mul s.host.Host.costs.Cost_model.wait_queue_register sl.call.n))

  let stop_sleeping s (sl : call Sleeper.t) =
    let sockets = sl.call.sockets in
    for i = Ready_buffer.length sockets - 1 downto 0 do
      ignore (Socket.unregister_waiter (Ready_buffer.get sockets i) sl.waiter)
    done;
    ignore
      (Host.charge s.host
         (Time.mul s.host.Host.costs.Cost_model.wait_queue_unregister sl.call.n));
    Sleeper.disarm sl

  let wake_up s (sl : call Sleeper.t) =
    Sleeper.release sl;
    finish s sl.call.results sl.call.k

  (* Wakeup rescans the whole set, as Linux 2.2 does; a spurious wakeup
     (event consumed elsewhere) sleeps again. *)
  let on_wake s (sl : call Sleeper.t) =
    stop_sleeping s sl;
    if scan_set s sl.call.results > 0 then wake_up s sl
    else begin
      register_all s sl;
      Sleeper.arm sl
    end

  let on_expire s sl =
    stop_sleeping s sl;
    wake_up s sl

  let create ~host ~lookup () =
    let engine = host.Host.engine in
    let placeholder = Sleeper.pool ~engine ~call:new_call ~on_wake:ignore ~on_expire:ignore in
    let s = create_fields ~host ~lookup ~sleepers:placeholder in
    s.sleepers <-
      Sleeper.pool ~engine ~call:new_call ~on_wake:(fun sl -> on_wake s sl)
        ~on_expire:(fun sl -> on_expire s sl);
    s

  (* poll() over the persistent set: charge-for-charge the same call
     sequence as [wait] — syscall entry, scan, sleep registration on
     every interest's socket, full rescan per wake, copy-out per ready.
     The results go out in a buffer lent from the set's pool until [k]
     returns. *)
  let[@complexity "O(interests)"] wait_set s ~timeout ~k =
    let host = s.host in
    let costs = host.Host.costs in
    let counters = host.Host.counters in
    counters.Host.syscalls <- counters.Host.syscalls + 1;
    ignore (Host.charge host costs.Cost_model.syscall_entry);
    let ready = Ready_buffer.acquire s.bufs in
    if scan_set s ready > 0 then finish s ready k
    else
      match timeout with
      | Some t when t <= Time.zero -> finish s ready k
      | _ ->
          let sl = Sleeper.acquire s.sleepers ~timeout in
          let call = sl.call in
          call.results <- ready;
          call.k <- k;
          call.n <- Fd_map.length s.entries;
          Ready_buffer.clear call.sockets;
          Fd_map.iter s.entries (fun fd _ ->
              match s.lookup fd with
              | Some sock -> Ready_buffer.push call.sockets sock
              | None -> ());
          register_all s sl;
          Sleeper.arm sl
end
