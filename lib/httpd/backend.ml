open Sio_sim
open Sio_kernel

type impl = {
  name : string;
  add : int -> Pollmask.t -> unit;
  modify : int -> Pollmask.t -> unit;
  remove : int -> unit;
  wait : timeout:Time.t option -> k:(Poll.result Ready_buffer.t -> unit) -> unit;
  interest_count : unit -> int;
}

type t = impl

let name t = t.name
let add t fd mask = t.add fd mask
let modify t fd mask = t.modify fd mask
let remove t fd = t.remove fd
let wait t ~timeout ~k = t.wait ~timeout ~k
let interest_count t = t.interest_count ()

let poll proc =
  (* User-space interest set; insertion order preserved so the pollfd
     array looks like thttpd's (listener first, then connections).
     Kept persistent so the host-side scan is O(active); charged costs
     and results are identical to rebuilding the list every call. *)
  let set =
    Poll.Pset.create
      ~host:(Process.host proc)
      ~lookup:(Process.lookup_socket proc)
      ()
  in
  {
    name = "poll";
    add = (fun fd mask -> Poll.Pset.set set fd mask);
    modify = (fun fd mask -> if Poll.Pset.mem set fd then Poll.Pset.set set fd mask);
    remove = (fun fd -> Poll.Pset.remove set fd);
    wait = (fun ~timeout ~k -> Poll.Pset.wait_set set ~timeout ~k);
    interest_count = (fun () -> Poll.Pset.length set);
  }

let devpoll ?(use_mmap = true) ?(max_events = 64) proc =
  match Kernel.devpoll_open proc with
  | Error (`Emfile | `Ebadf | `Eagain | `Einval) -> Error `Emfile
  | Ok dpfd ->
      if use_mmap then
        ignore (Kernel.devpoll_alloc_map proc dpfd ~slots:max_events);
      let count = ref 0 in
      let write entries = ignore (Kernel.devpoll_write proc dpfd entries) in
      Ok
        {
          name = (if use_mmap then "devpoll" else "devpoll-nommap");
          add =
            (fun fd mask ->
              incr count;
              write [ (fd, mask) ]);
          modify = (fun fd mask -> write [ (fd, mask) ]);
          remove =
            (fun fd ->
              decr count;
              write [ (fd, Pollmask.pollremove) ]);
          wait =
            (fun ~timeout ~k ->
              ignore (Kernel.devpoll_wait proc dpfd ~max_results:max_events ~timeout ~k));
          interest_count = (fun () -> !count);
        }

let select proc =
  let set =
    Select.Sset.create
      ~host:(Process.host proc)
      ~lookup:(Process.lookup_socket proc)
      ()
  in
  (* The three result sets as one event batch. Servers handle events in
     batch order, so the order is simulation-visible. *)
  let to_events result =
    let events = ref [] in
    Fd_set.iter result.Select.except (fun fd ->
        events := { Poll.fd; revents = Pollmask.pollerr } :: !events);
    Fd_set.iter result.Select.writable (fun fd ->
        events := { Poll.fd; revents = Pollmask.pollout } :: !events);
    Fd_set.iter result.Select.readable (fun fd ->
        match !events with
        | { Poll.fd = fd'; revents } :: rest when fd' = fd ->
            events := { Poll.fd; revents = Pollmask.union revents Pollmask.pollin } :: rest
        | _ -> events := { Poll.fd; revents = Pollmask.pollin } :: !events);
    !events
  in
  let bufs = Ready_buffer.pool () in
  let add fd mask = Select.Sset.add set fd mask in
  {
    name = "select";
    add;
    modify = add;
    remove = (fun fd -> Select.Sset.remove set fd);
    wait =
      (fun ~timeout ~k ->
        Select.Sset.wait_sset set ~timeout ~k:(fun result ->
            let events = Ready_buffer.acquire bufs in
            List.iter (Ready_buffer.push events) (to_events result);
            k events;
            Ready_buffer.release bufs events));
    interest_count = (fun () -> Select.Sset.interest_count set);
  }

let epoll ?(max_events = 64) proc =
  let ep = Epoll.create ~host:(Process.host proc) ~lookup:(Process.lookup_socket proc) in
  {
    name = "epoll";
    add =
      (fun fd mask ->
        match Epoll.ctl_add ep ~fd ~events:mask () with
        | Ok () -> ()
        | Error `Eexist -> ignore (Epoll.ctl_mod ep ~fd ~events:mask)
        | Error `Ebadf -> ());
    modify = (fun fd mask -> ignore (Epoll.ctl_mod ep ~fd ~events:mask));
    remove = (fun fd -> ignore (Epoll.ctl_del ep ~fd));
    wait =
      (fun ~timeout ~k -> Epoll.wait ep ~max_events ~timeout ~k);
    interest_count = (fun () -> Epoll.interest_count ep);
  }
