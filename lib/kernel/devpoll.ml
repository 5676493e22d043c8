open Sio_sim

type sub = { token : int; wtoken : int }

(* The subscription tokens are arena-native: they live in the
   subscribed socket's {!Conn_arena} cold slot under this instance's
   attach key and vanish with the connection. The instance keeps an
   fd -> socket-handle index so descriptor reuse is detectable (the
   handle remembers which socket the backmap was installed on). *)
type Conn_arena.cold += Dp_sub of sub

(* The arguments of a DP_POLL call that went to sleep. *)
type call = {
  mutable cap : int; (* max results for this call *)
  mutable results : Poll.result Ready_buffer.t;
  mutable k : Poll.result Ready_buffer.t -> unit;
}

let new_call () = { cap = 0; results = Ready_buffer.create ~initial_capacity:1 (); k = ignore }

type t = {
  host : Host.t;
  lookup : int -> Socket.t option;
  key : int; (* attach key naming this instance's subscriptions *)
  table : Interest_table.t;
  subs : Socket.t option Fd_map.t; (* fd -> socket the backmap is installed on *)
  active : Interest_table.interest Fd_map.t;
      (* Conservative superset of the interests whose next probe might
         do more than a hint-check skip. Everything outside it is
         idle-certified: socket present and backmapped, hints
         supported, hint empty, cached status not ready — so a probe
         would charge exactly interest_hash_op + hint_check and bump
         hint_skips. Scans visit only this set on the host and charge
         the idle majority analytically. *)
  wq : Socket.waiter Wait_queue.t; (* sleepers inside dp_poll *)
  bufs : Poll.result Ready_buffer.pool; (* result buffers lent to waiters *)
  mutable result_slots : int option;
  mutable sleepers : call Sleeper.pool;
  mutable closed : bool;
}

(* The [active] map's filler for unbound slots; never read or written. *)
let no_interest =
  { Interest_table.fd = -1; events = Pollmask.empty; hint = Pollmask.empty; cached = None }

let create_fields ~host ~lookup ~sleepers =
  {
    host;
    lookup;
    key = Socket.new_attach_key ();
    table = Interest_table.create ();
    subs = Fd_map.create ~initial_capacity:64 ~dummy:None ();
    active = Fd_map.create ~initial_capacity:64 ~dummy:no_interest ();
    wq = Wait_queue.create ();
    bufs = Ready_buffer.pool ();
    result_slots = None;
    sleepers;
    closed = false;
  }

let check_open t = if t.closed then invalid_arg "Devpoll: instance is closed"

(* Wake any task sleeping in dp_poll on this instance. *)
let wake_sleepers t mask =
  let costs = t.host.Host.costs in
  ignore
    (Wait_queue.wake t.wq ~policy:t.host.Host.wake_policy (fun w ->
         let counters = t.host.Host.counters in
         counters.Host.wait_queue_wakes <- counters.Host.wait_queue_wakes + 1;
         ignore (Host.charge t.host costs.Cost_model.wait_queue_wake);
         w.Socket.wake mask))

let mark_active t fd =
  match Interest_table.find t.table fd with
  | Some interest -> Fd_map.set t.active fd interest
  | None -> ()

(* Install the backmap subscription for fd on its current socket: the
   driver posts hints into the interest record and wakes sleepers. The
   uncharged watcher rides along to invalidate idle certification on
   any readiness edge (or hint-support toggle). *)
let subscribe t fd (sock : Socket.t) =
  let token =
    Socket.subscribe sock (fun mask ->
        (match Interest_table.find t.table fd with
        | Some interest ->
            interest.Interest_table.hint <- Pollmask.union interest.Interest_table.hint mask
        | None -> ());
        wake_sleepers t mask)
  in
  let wtoken = Socket.add_watcher sock (fun () -> mark_active t fd) in
  Socket.attach sock ~key:t.key (Dp_sub { token; wtoken });
  Fd_map.set t.subs fd (Some sock)

(* Drop the backmap subscription installed on [sock], if any. *)
let drop_sub t sock =
  match Socket.attachment sock ~key:t.key with
  | Dp_sub sub ->
      Socket.unsubscribe sock sub.token;
      Socket.remove_watcher sock sub.wtoken;
      Socket.detach sock ~key:t.key
  | _ -> ()

let unsubscribe t fd =
  match Fd_map.get t.subs fd with
  | None -> ()
  | Some sock ->
      drop_sub t sock;
      ignore (Fd_map.remove t.subs fd)

let write t entries =
  check_open t;
  let costs = t.host.Host.costs in
  let counters = t.host.Host.counters in
  counters.Host.syscalls <- counters.Host.syscalls + 1;
  ignore (Host.charge t.host costs.Cost_model.syscall_entry);
  ignore (Host.charge t.host costs.Cost_model.backmap_write_lock);
  List.iter
    (fun (fd, events) ->
      ignore (Host.charge t.host costs.Cost_model.devpoll_write_per_change);
      if Pollmask.mem Pollmask.pollremove events then begin
        unsubscribe t fd;
        ignore (Interest_table.remove t.table fd);
        ignore (Fd_map.remove t.active fd)
      end
      else begin
        ignore (Interest_table.set t.table ~fd ~events);
        (* New or modified interests must be re-probed: [set] resets
           hint and cache, so idle certification no longer holds. *)
        mark_active t fd;
        match t.lookup fd with
        | Some sock -> (
            match Fd_map.get t.subs fd with
            | Some installed when Socket.id installed = Socket.id sock -> ()
            | Some _ ->
                unsubscribe t fd;
                subscribe t fd sock
            | None -> subscribe t fd sock)
        | None -> unsubscribe t fd
      end)
    entries

let alloc_result_map t ~slots =
  check_open t;
  if slots <= 0 then invalid_arg "Devpoll.alloc_result_map: slots must be positive";
  if t.result_slots <> None then
    invalid_arg "Devpoll.alloc_result_map: mapping already exists";
  let costs = t.host.Host.costs in
  ignore (Host.charge t.host costs.Cost_model.syscall_entry);
  ignore (Host.charge t.host costs.Cost_model.mmap_setup);
  t.result_slots <- Some slots

let release_result_map t =
  check_open t;
  t.result_slots <- None

let has_result_map t = t.result_slots <> None

let forced = Pollmask.union Pollmask.pollerr (Pollmask.union Pollmask.pollhup Pollmask.pollnval)

(* Examine one interest, spending as little as the hints allow. *)
let probe t (interest : Interest_table.interest) =
  let costs = t.host.Host.costs in
  let counters = t.host.Host.counters in
  ignore (Host.charge t.host costs.Cost_model.interest_hash_op);
  let fd = interest.Interest_table.fd in
  match t.lookup fd with
  | None -> Pollmask.pollnval
  | Some sock ->
      (* Descriptor reuse: rebind the backmap to the new socket. *)
      (match Fd_map.get t.subs fd with
      | Some installed when Socket.id installed = Socket.id sock -> ()
      | Some _ | None ->
          unsubscribe t fd;
          subscribe t fd sock;
          interest.Interest_table.hint <- Pollmask.empty;
          interest.Interest_table.cached <- None);
      let consult_driver () =
        let st = Socket.driver_poll sock in
        interest.Interest_table.cached <- Some st;
        interest.Interest_table.hint <- Pollmask.empty;
        st
      in
      let st =
        if not (Socket.hints_supported sock) then consult_driver ()
        else begin
          ignore (Host.charge t.host costs.Cost_model.hint_check);
          if not (Pollmask.is_empty interest.Interest_table.hint) then consult_driver ()
          else
            match interest.Interest_table.cached with
            | Some cached
              when Pollmask.is_empty
                     (Pollmask.inter cached
                        (Pollmask.union interest.Interest_table.events forced)) ->
                (* Cached "not ready" with no hint: trust it. *)
                counters.Host.hint_skips <- counters.Host.hint_skips + 1;
                cached
            | Some _ ->
                (* Cached "ready" must be revalidated: hints never
                   report ready-to-not-ready transitions. *)
                consult_driver ()
            | None -> consult_driver ()
        end
      in
      let revents = Pollmask.inter st (Pollmask.union interest.Interest_table.events forced) in
      (* Idle certification: a not-ready result under hinting leaves
         hint empty and cache not-ready, so until the socket's watcher
         fires, re-probing would be exactly hash + hint-check + skip. *)
      if Pollmask.is_empty revents && Socket.hints_supported sock then
        ignore (Fd_map.remove t.active fd);
      revents

(* Charge [count] idle-certified interests in bulk: each would probe
   as interest_hash_op + hint_check and bump hint_skips (see [active]
   above for why that is exact, not an estimate). *)
let charge_idle t count =
  if count > 0 then begin
    let costs = t.host.Host.costs in
    let counters = t.host.Host.counters in
    ignore
      (Cost_model.charge_batch t.host.Host.cpu
         ~cost:(Time.add costs.Cost_model.interest_hash_op costs.Cost_model.hint_check)
         ~count);
    counters.Host.hint_skips <- counters.Host.hint_skips + count
  end

(* Fill the result buffer (cleared here), stopping — probes and table
   walk both — the moment it holds [max_results]. Returns the ready
   count.

   Host cost is O(active): when nothing is active the whole table is
   one analytic charge; otherwise the walk skips idle-certified
   entries (counting them for the bulk charge) and exits as soon as
   the last active interest has been probed, charging the unvisited
   tail in bulk. Charged nanoseconds and counters are identical to the
   full walk — only the charge *order* within the scan differs, and
   Cpu.consume is additive with no engine interleaving mid-scan. *)
let[@complexity "O(active)"] scan t ~max_results ready =
  Ready_buffer.clear ready;
  let total = Interest_table.length t.table in
  if Fd_map.length t.active = 0 then begin
    charge_idle t total;
    0
  end
  else begin
    let remaining = ref (Fd_map.length t.active) in
    let visited = ref 0 in
    let idle_seen = ref 0 in
    Interest_table.iter_while t.table ~f:(fun interest ->
        if Ready_buffer.length ready >= max_results then false
        else if !remaining = 0 then false
        else begin
          incr visited;
          if Fd_map.mem t.active interest.Interest_table.fd then begin
            (* Count before probing: probe may re-certify this entry
               idle, but never touches other entries' marks. *)
            decr remaining;
            let revents = probe t interest in
            if not (Pollmask.is_empty revents) then
              Ready_buffer.push ready { Poll.fd = interest.Interest_table.fd; revents }
          end
          else incr idle_seen;
          true
        end);
    (* The unvisited tail is all idle — but only charge it if the
       buffer has room: a full buffer stops the real walk cold. *)
    if Ready_buffer.length ready < max_results then
      idle_seen := !idle_seen + (total - !visited);
    charge_idle t !idle_seen;
    Ready_buffer.length ready
  end

(* Hand [ready] to [k]. With the shared mapping there is nothing to
   copy out. The buffer is lent to [k]; a DP_POLL issued inside [k]
   gets another one, so this batch survives it. *)
let finish t ready k =
  let costs = t.host.Host.costs in
  if t.result_slots = None then
    ignore
      (Host.charge t.host
         (Time.mul costs.Cost_model.poll_copyout_per_ready (Ready_buffer.length ready)));
  Host.charge_run t.host ~cost:Time.zero (fun () ->
      k ready;
      Ready_buffer.release t.bufs ready)

let stop_sleeping t (sl : call Sleeper.t) =
  ignore (Wait_queue.unregister t.wq sl.waiter);
  Sleeper.disarm sl

let wake_up t (sl : call Sleeper.t) =
  Sleeper.release sl;
  finish t sl.call.results sl.call.k

let sleep t (sl : call Sleeper.t) =
  Wait_queue.register t.wq sl.waiter;
  Sleeper.arm sl

let on_wake t (sl : call Sleeper.t) =
  stop_sleeping t sl;
  if scan t ~max_results:sl.call.cap sl.call.results > 0 then wake_up t sl else sleep t sl

let on_expire t sl =
  stop_sleeping t sl;
  wake_up t sl

let create ~host ~lookup =
  let engine = host.Host.engine in
  let placeholder = Sleeper.pool ~engine ~call:new_call ~on_wake:ignore ~on_expire:ignore in
  let t = create_fields ~host ~lookup ~sleepers:placeholder in
  t.sleepers <-
    Sleeper.pool ~engine ~call:new_call ~on_wake:(fun sl -> on_wake t sl)
      ~on_expire:(fun sl -> on_expire t sl);
  t

let[@complexity "O(active)"] dp_poll t ~max_results ~timeout ~k =
  check_open t;
  if max_results <= 0 then invalid_arg "Devpoll.dp_poll: max_results must be positive";
  let costs = t.host.Host.costs in
  let counters = t.host.Host.counters in
  counters.Host.syscalls <- counters.Host.syscalls + 1;
  ignore (Host.charge t.host costs.Cost_model.syscall_entry);
  let ready = Ready_buffer.acquire t.bufs in
  let cap =
    match t.result_slots with
    | Some slots -> Stdlib.min max_results slots
    | None -> max_results
  in
  if scan t ~max_results:cap ready > 0 then finish t ready k
  else
    match timeout with
    | Some x when x <= Time.zero -> finish t ready k
    | _ ->
        let sl = Sleeper.acquire t.sleepers ~timeout in
        sl.call.cap <- cap;
        sl.call.results <- ready;
        sl.call.k <- k;
        (* Only the first registration of a call is charged. *)
        ignore (Host.charge t.host costs.Cost_model.wait_queue_register);
        sleep t sl

let interest_count t = Interest_table.length t.table
let find_interest t fd = Interest_table.find t.table fd
let active_count t = Fd_map.length t.active
let active_fds t = List.map fst (Fd_map.to_list t.active)

let close t =
  if not t.closed then begin
    Fd_map.iter t.subs (fun _ sock -> Option.iter (drop_sub t) sock);
    Fd_map.clear t.subs;
    Fd_map.clear t.active;
    t.closed <- true
  end

let is_closed t = t.closed
