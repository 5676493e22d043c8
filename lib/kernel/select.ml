open Sio_sim

type result = { readable : Fd_set.t; writable : Fd_set.t; except : Fd_set.t }

(* select copies three bitmaps in and out and walks descriptors
   0..nfds-1 regardless of membership; we charge the bitmap walk at a
   third of the pollfd copy cost per fd (three dense bits vs an 8-byte
   struct) plus the driver callback for members. *)
let scan_cost ~host ~nfds =
  let costs = host.Host.costs in
  Time.mul (Time.div costs.Cost_model.poll_copyin_per_fd 3) nfds

let[@complexity "O(interests)"] scan ~host ~lookup ~read ~write ~except =
  let costs = host.Host.costs in
  let nfds =
    1 + Stdlib.max (Fd_set.max_fd read) (Stdlib.max (Fd_set.max_fd write) (Fd_set.max_fd except))
  in
  ignore (Host.charge host (scan_cost ~host ~nfds));
  let r = Fd_set.create () and w = Fd_set.create () and e = Fd_set.create () in
  let ready = ref 0 in
  let consult fd =
    match lookup fd with
    | None ->
        (* Bad descriptor: report as exceptional condition. *)
        if Fd_set.mem except fd || Fd_set.mem read fd || Fd_set.mem write fd then begin
          Fd_set.set e fd;
          incr ready
        end;
        Pollmask.empty
    | Some sock -> Socket.driver_poll sock
  in
  ignore costs;
  for fd = 0 to nfds - 1 do
    if Fd_set.mem read fd || Fd_set.mem write fd || Fd_set.mem except fd then begin
      let st = consult fd in
      if
        Fd_set.mem read fd
        && Pollmask.intersects st
             (Pollmask.union Pollmask.readable Pollmask.pollhup)
      then begin
        Fd_set.set r fd;
        incr ready
      end;
      if Fd_set.mem write fd && Pollmask.intersects st Pollmask.pollout then begin
        Fd_set.set w fd;
        incr ready
      end;
      if
        Fd_set.mem except fd
        && Pollmask.intersects st (Pollmask.union Pollmask.pollerr Pollmask.pollpri)
      then begin
        Fd_set.set e fd;
        incr ready
      end
    end
  done;
  ({ readable = r; writable = w; except = e }, !ready)

let[@complexity "O(interests)"] select ~host ~lookup ~read ~write ~except ~timeout ~k =
  let costs = host.Host.costs in
  let counters = host.Host.counters in
  counters.Host.syscalls <- counters.Host.syscalls + 1;
  ignore (Host.charge host costs.Cost_model.syscall_entry);
  let finish result = Host.charge_run host ~cost:Time.zero (fun () -> k result) in
  (* Dedup against the bitmaps already in hand (O(1) per fd) instead
     of a List.mem walk over the accumulator (O(members²)). *)
  let members () =
    let fds = ref [] in
    Fd_set.iter read (fun fd -> fds := fd :: !fds);
    Fd_set.iter write (fun fd -> if not (Fd_set.mem read fd) then fds := fd :: !fds);
    Fd_set.iter except (fun fd ->
        if not (Fd_set.mem read fd || Fd_set.mem write fd) then fds := fd :: !fds);
    List.filter_map lookup !fds
  in
  let first, ready = scan ~host ~lookup ~read ~write ~except in
  if ready > 0 then finish first
  else
    match timeout with
    | Some t when t <= Time.zero -> finish first
    | _ ->
        let sockets = members () in
        let n = List.length sockets in
        ignore (Host.charge host (Time.mul costs.Cost_model.wait_queue_register n));
        let timer = ref None in
        let waiter_ref = ref None in
        let cleanup () =
          (match !waiter_ref with
          | Some wtr -> List.iter (fun s -> ignore (Socket.unregister_waiter s wtr)) sockets
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
          let result, ready = scan ~host ~lookup ~read ~write ~except in
          if ready > 0 then finish result
          else begin
            let wtr = { Socket.wake = on_wake } in
            waiter_ref := Some wtr;
            List.iter (fun s -> Socket.register_waiter s wtr) sockets;
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
                       let result, _ = scan ~host ~lookup ~read ~write ~except in
                       finish result))
        in
        let wtr = { Socket.wake = on_wake } in
        waiter_ref := Some wtr;
        List.iter (fun s -> Socket.register_waiter s wtr) sockets;
        arm_timer ()

(* A stateful select set, mirroring how thttpd actually uses select():
   the same three bitmaps (except aliased to read) are re-submitted on
   every loop iteration. Kept between calls so the host-side walk is
   O(active) while charged costs, counters, and the returned bitmaps
   stay identical to [select] over the same bitmaps. *)
module Sset = struct
  type member = { fd : int; mutable bound : (Socket.t * int) option }

  (* The state of a select() call over the set that went to sleep.
     [sockets] is the snapshot, taken when the call first sleeps, of
     the sockets it registers on. *)
  type call = { sockets : Socket.t Ready_buffer.t; mutable k : result -> unit }

  let new_call () = { sockets = Ready_buffer.create (); k = ignore }

  type sset = {
    host : Host.t;
    lookup : int -> Socket.t option;
    read : Fd_set.t; (* also the except set, as thttpd passes it *)
    write : Fd_set.t;
    members : member Fd_map.t; (* every fd with a read or write bit *)
    active : member Fd_map.t;
        (* Conservative superset of members whose probe might set a
           result bit. Everything outside it was last seen reporting
           nothing on a live, watcher-bound socket, so its probe is
           exactly one driver callback with no bits set. *)
    mutable sleepers : call Sleeper.pool;
  }

  (* The maps' filler for unbound slots; never read or written. *)
  let no_member = { fd = -1; bound = None }

  let create_fields ~host ~lookup ~sleepers =
    {
      host;
      lookup;
      read = Fd_set.create ();
      write = Fd_set.create ();
      members = Fd_map.create ~initial_capacity:64 ~dummy:no_member ();
      active = Fd_map.create ~initial_capacity:64 ~dummy:no_member ();
      sleepers;
    }

  let unbind m =
    match m.bound with
    | Some (sock, wtoken) ->
        Socket.remove_watcher sock wtoken;
        m.bound <- None
    | None -> ()

  let remove s fd =
    Fd_set.clear s.read fd;
    Fd_set.clear s.write fd;
    if Fd_map.mem s.members fd then begin
      unbind (Fd_map.get s.members fd);
      ignore (Fd_map.remove s.members fd)
    end;
    ignore (Fd_map.remove s.active fd)

  (* Same bit discipline as thttpd's backend: readable interest sets
     the read bit, POLLOUT interest the write bit; a mask with neither
     leaves the fd out of the set entirely. Any change re-activates
     the fd (its next probe may answer differently). *)
  let add s fd mask =
    if Pollmask.intersects mask Pollmask.readable then Fd_set.set s.read fd
    else Fd_set.clear s.read fd;
    if Pollmask.intersects mask Pollmask.pollout then Fd_set.set s.write fd
    else Fd_set.clear s.write fd;
    if Fd_set.mem s.read fd || Fd_set.mem s.write fd then begin
      let m =
        if Fd_map.mem s.members fd then Fd_map.get s.members fd
        else begin
          let m = { fd; bound = None } in
          Fd_map.set s.members fd m;
          m
        end
      in
      Fd_map.set s.active fd m
    end
    else remove s fd

  let mem s fd = Fd_map.mem s.members fd
  let interest_count s = Fd_set.cardinal s.read
  let active_fds s = List.map fst (Fd_map.to_list s.active)

  (* O(active) scan: the bitmap-walk cost over 0..nfds-1 was already
     analytic; idle members are charged one batched driver callback
     each (they all have live sockets, else the except bit would have
     kept them active), active members run the per-fd body of [scan]
     verbatim, in the same ascending-fd order. *)
  let[@complexity "O(active)"] scan_sset s =
    let host = s.host in
    let costs = host.Host.costs in
    let counters = host.Host.counters in
    let read = s.read and write = s.write in
    let except = s.read in
    let nfds =
      1
      + Stdlib.max (Fd_set.max_fd read)
          (Stdlib.max (Fd_set.max_fd write) (Fd_set.max_fd except))
    in
    ignore (Host.charge host (scan_cost ~host ~nfds));
    let r = Fd_set.create () and w = Fd_set.create () and e = Fd_set.create () in
    let ready = ref 0 in
    let idle = Fd_map.length s.members - Fd_map.length s.active in
    if idle > 0 then begin
      ignore
        (Cost_model.charge_batch host.Host.cpu ~cost:costs.Cost_model.driver_poll_callback
           ~count:idle);
      counters.Host.driver_polls <- counters.Host.driver_polls + idle
    end;
    Fd_map.iter s.active (fun fd m ->
        let any = ref false in
        (match s.lookup fd with
        | None ->
            if Fd_set.mem except fd || Fd_set.mem read fd || Fd_set.mem write fd then begin
              Fd_set.set e fd;
              incr ready;
              any := true
            end
        | Some sock ->
            (match m.bound with
            | Some (s0, _) when Socket.id s0 = Socket.id sock -> ()
            | Some _ | None ->
                unbind m;
                let wtoken =
                  Socket.add_watcher sock (fun () -> Fd_map.set s.active m.fd m)
                in
                m.bound <- Some (sock, wtoken));
            let st = Socket.driver_poll sock in
            if
              Fd_set.mem read fd
              && Pollmask.intersects st (Pollmask.union Pollmask.readable Pollmask.pollhup)
            then begin
              Fd_set.set r fd;
              incr ready;
              any := true
            end;
            if Fd_set.mem write fd && Pollmask.intersects st Pollmask.pollout then begin
              Fd_set.set w fd;
              incr ready;
              any := true
            end;
            if
              Fd_set.mem except fd
              && Pollmask.intersects st (Pollmask.union Pollmask.pollerr Pollmask.pollpri)
            then begin
              Fd_set.set e fd;
              incr ready;
              any := true
            end;
            if not !any then ignore (Fd_map.remove s.active fd)));
    ({ readable = r; writable = w; except = e }, !ready)

  let finish s result k = Host.charge_run s.host ~cost:Time.zero (fun () -> k result)

  let charge_per_socket s (sl : call Sleeper.t) cost =
    ignore (Host.charge s.host (Time.mul cost (Ready_buffer.length sl.call.sockets)))

  (* Registration and removal walk the snapshot from the highest fd
     down. *)
  let register_all s (sl : call Sleeper.t) =
    let sockets = sl.call.sockets in
    for i = Ready_buffer.length sockets - 1 downto 0 do
      Socket.register_waiter (Ready_buffer.get sockets i) sl.waiter
    done;
    charge_per_socket s sl s.host.Host.costs.Cost_model.wait_queue_register

  let stop_sleeping s (sl : call Sleeper.t) =
    let sockets = sl.call.sockets in
    for i = Ready_buffer.length sockets - 1 downto 0 do
      ignore (Socket.unregister_waiter (Ready_buffer.get sockets i) sl.waiter)
    done;
    charge_per_socket s sl s.host.Host.costs.Cost_model.wait_queue_unregister;
    Sleeper.disarm sl

  let wake_up s (sl : call Sleeper.t) result =
    Sleeper.release sl;
    finish s result sl.call.k

  let on_wake s sl =
    stop_sleeping s sl;
    let result, ready = scan_sset s in
    if ready > 0 then wake_up s sl result
    else begin
      register_all s sl;
      Sleeper.arm sl
    end

  (* The rescan at timeout expiry. *)
  let on_expire s sl =
    stop_sleeping s sl;
    let result, _ = scan_sset s in
    wake_up s sl result

  let create ~host ~lookup () =
    let engine = host.Host.engine in
    let placeholder = Sleeper.pool ~engine ~call:new_call ~on_wake:ignore ~on_expire:ignore in
    let s = create_fields ~host ~lookup ~sleepers:placeholder in
    s.sleepers <-
      Sleeper.pool ~engine ~call:new_call ~on_wake:(fun sl -> on_wake s sl)
        ~on_expire:(fun sl -> on_expire s sl);
    s

  (* select() over the persistent set: charge-for-charge the same call
     sequence as [select], including the rescan at timeout expiry. *)
  let[@complexity "O(interests)"] wait_sset s ~timeout ~k =
    let host = s.host in
    let costs = host.Host.costs in
    let counters = host.Host.counters in
    counters.Host.syscalls <- counters.Host.syscalls + 1;
    ignore (Host.charge host costs.Cost_model.syscall_entry);
    let first, ready = scan_sset s in
    if ready > 0 then finish s first k
    else
      match timeout with
      | Some t when t <= Time.zero -> finish s first k
      | _ ->
          let sl = Sleeper.acquire s.sleepers ~timeout in
          let call = sl.call in
          call.k <- k;
          Ready_buffer.clear call.sockets;
          Fd_map.iter s.members (fun fd _ ->
              match s.lookup fd with
              | Some sock -> Ready_buffer.push call.sockets sock
              | None -> ());
          register_all s sl;
          Sleeper.arm sl
end
