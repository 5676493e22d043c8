open Sio_sim

type siginfo = { signo : int; fd : int; band : Pollmask.t }
type delivery = Signal of siginfo | Overflow

let sigrtmin = 32

type entry = { info : siginfo; seq : int }

(* The observer token of an F_SETSIG binding is arena-native: it
   lives in the bound socket's {!Conn_arena} cold slot under this
   queue's attach key; the queue keeps only an fd -> socket-handle
   index so rebinds and clears can find the old socket. *)
type Conn_arena.cold += Rt_binding of { token : int }

type queue = {
  host : Host.t;
  limit : int;
  heap : entry Heap.t; (* min by (signo, seq): POSIX delivery order *)
  mutable next_seq : int;
  mutable sigio : bool;
  key : int; (* attach key naming this queue's bindings *)
  bindings : Socket.t Fd_map.t; (* fd -> socket the signal is bound on *)
  waiters : (delivery list -> unit) Queue.t; (* blocked sigwait callers *)
  mutable waiter_max : int Queue.t; (* parallel queue of batch sizes *)
}

(* The heap's filler for unused slots, allocated once (see {!Heap.create}). *)
let filler = { info = { signo = 0; fd = 0; band = Pollmask.empty }; seq = 0 }

let entry_leq a b =
  a.info.signo < b.info.signo || (a.info.signo = b.info.signo && a.seq <= b.seq)

let create_queue ~host ?(limit = 1024) () =
  if limit <= 0 then invalid_arg "Rt_signal.create_queue: limit must be positive";
  {
    host;
    limit;
    heap =
      Heap.create ~leq:entry_leq ~dummy:filler ();
    next_seq = 0;
    sigio = false;
    key = Socket.new_attach_key ();
    bindings = Fd_map.create ~initial_capacity:64 ();
    waiters = Queue.create ();
    waiter_max = Queue.create ();
  }

let pending q = Heap.length q.heap
let sigio_pending q = q.sigio
let limit q = q.limit

(* Dequeue up to [max] deliveries; assumes something is available. *)
let[@complexity "O(ready)"] take q max =
  let costs = q.host.Host.costs in
  let rec go acc n =
    if n = 0 then List.rev acc
    else if q.sigio then begin
      (* SIGIO is a classic signal: numerically below SIGRTMIN, so it
         is delivered before any queued RT signal. *)
      q.sigio <- false;
      ignore (Host.charge q.host costs.Cost_model.rt_dequeue);
      go (Overflow :: acc) (n - 1)
    end
    else
      match Heap.pop q.heap with
      | Some e ->
          ignore (Host.charge q.host costs.Cost_model.rt_dequeue);
          go (Signal e.info :: acc) (n - 1)
      | None -> List.rev acc
  in
  go [] max

let service_waiters q =
  while
    (not (Queue.is_empty q.waiters)) && (q.sigio || not (Heap.is_empty q.heap))
  do
    let k = Queue.take q.waiters in
    let max = Queue.take q.waiter_max in
    let ds = take q max in
    Host.charge_run q.host ~cost:Time.zero (fun () -> k ds)
  done

let enqueue q info =
  let costs = q.host.Host.costs in
  let counters = q.host.Host.counters in
  if Heap.length q.heap >= q.limit then begin
    (* Queue exhausted: drop the signal; raise SIGIO once. *)
    counters.Host.rt_dropped <- counters.Host.rt_dropped + 1;
    if not q.sigio then begin
      q.sigio <- true;
      counters.Host.rt_overflows <- counters.Host.rt_overflows + 1
    end
  end
  else begin
    counters.Host.rt_enqueued <- counters.Host.rt_enqueued + 1;
    ignore (Host.charge q.host costs.Cost_model.rt_enqueue);
    Heap.push q.heap { info; seq = q.next_seq };
    q.next_seq <- q.next_seq + 1
  end;
  service_waiters q

let set_signal q ~socket ~fd ~signo =
  if signo < sigrtmin then invalid_arg "Rt_signal.set_signal: signo below SIGRTMIN";
  let costs = q.host.Host.costs in
  let counters = q.host.Host.counters in
  counters.Host.syscalls <- counters.Host.syscalls + 1;
  ignore (Host.charge q.host costs.Cost_model.syscall_entry);
  ignore (Host.charge q.host costs.Cost_model.fcntl_call);
  (match Fd_map.find q.bindings fd with
  | Some old_sock ->
      (match Socket.attachment old_sock ~key:q.key with
      | Some (Rt_binding { token }) ->
          Socket.unsubscribe old_sock token;
          Socket.detach old_sock ~key:q.key
      | Some _ | None -> ());
      ignore (Fd_map.remove q.bindings fd)
  | None -> ());
  let token =
    Socket.subscribe socket (fun mask -> enqueue q { signo; fd; band = mask })
  in
  Socket.attach socket ~key:q.key (Rt_binding { token });
  Fd_map.set q.bindings fd socket

let clear_signal q ~socket ~fd =
  let costs = q.host.Host.costs in
  let counters = q.host.Host.counters in
  counters.Host.syscalls <- counters.Host.syscalls + 1;
  ignore (Host.charge q.host costs.Cost_model.syscall_entry);
  ignore (Host.charge q.host costs.Cost_model.fcntl_call);
  match Fd_map.find q.bindings fd with
  | Some bound_sock when bound_sock == socket ->
      (match Socket.attachment bound_sock ~key:q.key with
      | Some (Rt_binding { token }) ->
          Socket.unsubscribe bound_sock token;
          Socket.detach bound_sock ~key:q.key
      | Some _ | None -> ());
      ignore (Fd_map.remove q.bindings fd)
  | Some _ | None -> ()

let[@complexity "O(ready)"] wait_general q ~max ~timeout ~k =
  let costs = q.host.Host.costs in
  let counters = q.host.Host.counters in
  counters.Host.syscalls <- counters.Host.syscalls + 1;
  ignore (Host.charge q.host costs.Cost_model.syscall_entry);
  ignore (Host.charge q.host costs.Cost_model.sigwait_call);
  if q.sigio || not (Heap.is_empty q.heap) then begin
    let ds = take q max in
    Host.charge_run q.host ~cost:Time.zero (fun () -> k ds)
  end
  else
    match timeout with
    | Some t when t <= Time.zero -> Host.charge_run q.host ~cost:Time.zero (fun () -> k [])
    | _ ->
        Queue.add k q.waiters;
        Queue.add max q.waiter_max;
        (match timeout with
        | None -> ()
        | Some t ->
            ignore
              (Engine.after q.host.Host.engine t (fun () ->
                   (* If still waiting, deliver an empty result. This
                      linear removal only runs on timeouts, which are
                      rare in every workload we model. *)
                   let still_waiting = ref false in
                   let ks = Queue.to_seq q.waiters |> List.of_seq in
                   let ms = Queue.to_seq q.waiter_max |> List.of_seq in
                   Queue.clear q.waiters;
                   Queue.clear q.waiter_max;
                   List.iter2
                     (fun k' m ->
                       if k' == k then still_waiting := true
                       else begin
                         Queue.add k' q.waiters;
                         Queue.add m q.waiter_max
                       end)
                     ks ms;
                   if !still_waiting then k [])))

let[@complexity "O(ready)"] sigwaitinfo q ~k =
  wait_general q ~max:1 ~timeout:None ~k:(fun ds ->
      match ds with
      | [ d ] -> k d
      | [] | _ :: _ :: _ -> assert false)

let[@complexity "O(ready)"] sigtimedwait4 q ~max ~timeout ~k =
  if max <= 0 then invalid_arg "Rt_signal.sigtimedwait4: max must be positive";
  wait_general q ~max ~timeout ~k

let flush q =
  let dropped = Heap.length q.heap in
  Heap.clear q.heap;
  q.sigio <- false;
  dropped
