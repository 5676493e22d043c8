open Sio_sim

type trigger = Level | Edge

type interest = {
  fd : int;
  mutable events : Pollmask.t;
  trigger : trigger;
  mutable queued : bool; (* already on the ready list *)
  mutable pending : Pollmask.t; (* accumulated edges (edge mode) *)
  mutable token : int; (* observer subscription *)
}

(* The interest record is arena-native: it lives in the socket's
   {!Conn_arena} cold slot under this instance's attach key, so
   closing the connection drops it (and its observer registration)
   with the slot. The instance keeps only an fd -> socket-handle
   index, needed because epoll is keyed by descriptor and must keep
   reporting POLLNVAL for descriptors that vanish from the fd table
   while their interest is still registered. *)
type Conn_arena.cold += Ep_interest of interest

type t = {
  host : Host.t;
  lookup : int -> Socket.t option;
  key : int; (* attach key naming this instance's interests *)
  watched : Socket.t Fd_map.t; (* fd -> socket at registration time *)
  ready : int Queue.t;
  batch : interest Ready_buffer.t; (* harvest's level-triggered survivors *)
  bufs : Poll.result Ready_buffer.pool; (* result buffers lent to waiters *)
  wq : Socket.waiter Wait_queue.t;
  mutable closed : bool;
}

let create ~host ~lookup =
  {
    host;
    lookup;
    key = Socket.new_attach_key ();
    watched = Fd_map.create ~initial_capacity:64 ();
    ready = Queue.create ();
    batch = Ready_buffer.create ();
    bufs = Ready_buffer.pool ();
    wq = Wait_queue.create ();
    closed = false;
  }

let interest_of t socket =
  match Socket.attachment socket ~key:t.key with
  | Some (Ep_interest i) -> Some i
  | Some _ | None -> None

let forced = Pollmask.union Pollmask.pollerr (Pollmask.union Pollmask.pollhup Pollmask.pollnval)

let wake_sleepers t mask =
  let costs = t.host.Host.costs in
  ignore
    (Wait_queue.wake t.wq ~policy:t.host.Host.wake_policy (fun w ->
         let counters = t.host.Host.counters in
         counters.Host.wait_queue_wakes <- counters.Host.wait_queue_wakes + 1;
         ignore (Host.charge t.host costs.Cost_model.wait_queue_wake);
         w.Socket.wake mask))

(* The hint path: O(1) append to the ready list. *)
let enqueue_ready t interest mask =
  let costs = t.host.Host.costs in
  ignore (Host.charge t.host costs.Cost_model.backmap_read_lock);
  interest.pending <- Pollmask.union interest.pending mask;
  if (not interest.queued) && Pollmask.intersects mask (Pollmask.union interest.events forced)
  then begin
    interest.queued <- true;
    Queue.add interest.fd t.ready
  end;
  wake_sleepers t mask

let charge_ctl t =
  let costs = t.host.Host.costs in
  let counters = t.host.Host.counters in
  counters.Host.syscalls <- counters.Host.syscalls + 1;
  ignore (Host.charge t.host costs.Cost_model.syscall_entry);
  ignore (Host.charge t.host costs.Cost_model.interest_hash_op)

let ctl_add t ~fd ~events ?(trigger = Level) () =
  charge_ctl t;
  if Fd_map.mem t.watched fd then Error `Eexist
  else
    match t.lookup fd with
    | None -> Error `Ebadf
    | Some socket ->
        let interest =
          { fd; events; trigger; queued = false; pending = Pollmask.empty; token = 0 }
        in
        interest.token <- Socket.subscribe socket (fun mask -> enqueue_ready t interest mask);
        Socket.attach socket ~key:t.key (Ep_interest interest);
        Fd_map.set t.watched fd socket;
        (* No lost startup events: if already ready, queue now. *)
        let st = Socket.status socket in
        if Pollmask.intersects st (Pollmask.union events forced) then begin
          interest.pending <- st;
          interest.queued <- true;
          Queue.add fd t.ready
        end;
        Ok ()

let ctl_mod t ~fd ~events =
  charge_ctl t;
  match Fd_map.find t.watched fd with
  | None -> Error `Enoent
  | Some socket -> (
      match interest_of t socket with
      | None -> Ok () (* connection already freed; nothing to retarget *)
      | Some interest ->
          interest.events <- events;
          (* A newly interesting condition may already hold. *)
          let st = Socket.status socket in
          if
            (not interest.queued)
            && Pollmask.intersects st (Pollmask.union events forced)
          then begin
            interest.queued <- true;
            Queue.add fd t.ready
          end;
          Ok ())

let ctl_del t ~fd =
  charge_ctl t;
  match Fd_map.find t.watched fd with
  | None -> Error `Enoent
  | Some socket ->
      (match interest_of t socket with
      | Some interest -> Socket.unsubscribe socket interest.token
      | None -> ());
      Socket.detach socket ~key:t.key;
      ignore (Fd_map.remove t.watched fd);
      (* A stale ready-list entry is dropped lazily at the next wait. *)
      Ok ()

(* Pop up to [max_events] valid ready entries into [results] (cleared
   here), validating each against the driver: O(ready), never
   O(interests). Returns how many it found. *)
let[@complexity "O(ready)"] harvest t ~max_events results =
  Ready_buffer.clear results;
  Ready_buffer.clear t.batch;
  while Ready_buffer.length results < max_events && not (Queue.is_empty t.ready) do
    let fd = Queue.take t.ready in
    match Fd_map.find t.watched fd with
    | None -> () (* deleted while queued *)
    | Some registered -> (
        (match interest_of t registered with
        | Some interest -> interest.queued <- false
        | None -> ());
        match t.lookup fd with
        | None ->
            (* Descriptor closed while queued: report NVAL once. *)
            Ready_buffer.push results { Poll.fd; revents = Pollmask.pollnval }
        | Some sock when Socket.id sock <> Socket.id registered ->
            (* fd reused by a different socket; epoll keys on the open
               file, so the old interest is dead. *)
            (match interest_of t registered with
            | Some interest -> Socket.unsubscribe registered interest.token
            | None -> ());
            Socket.detach registered ~key:t.key;
            ignore (Fd_map.remove t.watched fd)
        | Some sock -> (
            match interest_of t sock with
            | None -> ()
            | Some interest ->
                let st = Socket.driver_poll sock in
                let revents =
                  match interest.trigger with
                  | Level -> Pollmask.inter st (Pollmask.union interest.events forced)
                  | Edge ->
                      Pollmask.inter
                        (Pollmask.union interest.pending st)
                        (Pollmask.union interest.events forced)
                in
                interest.pending <- Pollmask.empty;
                if Pollmask.is_empty revents then () (* stale: readiness evaporated *)
                else begin
                  Ready_buffer.push results { Poll.fd; revents };
                  (* Level-triggered and still ready: stays on the list. *)
                  if interest.trigger = Level then Ready_buffer.push t.batch interest
                end))
  done;
  (* Requeue in reverse harvest order: the ready list's order decides
     which descriptors later waits report, so it is simulation-visible. *)
  for i = Ready_buffer.length t.batch - 1 downto 0 do
    let interest = Ready_buffer.get t.batch i in
    if not interest.queued then begin
      interest.queued <- true;
      Queue.add interest.fd t.ready
    end
  done;
  Ready_buffer.length results

let[@complexity "O(ready)"] wait t ~max_events ~timeout ~k =
  if t.closed then invalid_arg "Epoll.wait: closed";
  if max_events <= 0 then invalid_arg "Epoll.wait: max_events must be positive";
  let costs = t.host.Host.costs in
  let counters = t.host.Host.counters in
  counters.Host.syscalls <- counters.Host.syscalls + 1;
  ignore (Host.charge t.host costs.Cost_model.syscall_entry);
  let results = Ready_buffer.acquire t.bufs in
  let finish () =
    ignore
      (Host.charge t.host
         (Time.mul costs.Cost_model.poll_copyout_per_ready (Ready_buffer.length results)));
    (* Lent to [k]; an epoll_wait inside [k] gets a buffer of its own. *)
    Host.charge_run t.host ~cost:Time.zero (fun () ->
        k results;
        Ready_buffer.release t.bufs results)
  in
  if harvest t ~max_events results > 0 then finish ()
  else
    match timeout with
    | Some x when x <= Time.zero -> finish ()
    | _ ->
        let timer = ref None in
        let waiter_ref = ref None in
        let cleanup () =
          (match !waiter_ref with
          | Some w -> ignore (Wait_queue.unregister t.wq w)
          | None -> ());
          match !timer with
          | Some h ->
              Engine.cancel t.host.Host.engine h;
              timer := None
          | None -> ()
        in
        let rec on_wake _mask =
          cleanup ();
          if harvest t ~max_events results > 0 then finish ()
          else begin
            let w = { Socket.wake = on_wake } in
            waiter_ref := Some w;
            Wait_queue.register t.wq w;
            arm_timer ()
          end
        and arm_timer () =
          match timeout with
          | None -> ()
          | Some x ->
              timer :=
                Some
                  (Engine.after t.host.Host.engine x (fun () ->
                       timer := None;
                       cleanup ();
                       finish ()))
        in
        let w = { Socket.wake = on_wake } in
        waiter_ref := Some w;
        Wait_queue.register t.wq w;
        arm_timer ()

let interest_count t = Fd_map.length t.watched
let ready_count t = Queue.length t.ready

let close t =
  if not t.closed then begin
    Fd_map.iter t.watched (fun _ socket ->
        (match interest_of t socket with
        | Some interest -> Socket.unsubscribe socket interest.token
        | None -> ());
        Socket.detach socket ~key:t.key);
    Fd_map.clear t.watched;
    Queue.clear t.ready;
    t.closed <- true
  end
