open Sio_sim

type read_result = Data | Eof | Eagain | Econnreset

type read_buf = { mutable text : string; mutable bytes : int }

let read_buf () = { text = ""; bytes = 0 }

type 'a syscall_result = ('a, [ `Ebadf | `Emfile | `Eagain | `Einval ]) result

type write_error = [ `Ebadf | `Emfile | `Eagain | `Einval | `Econnreset ]

let enter proc extra =
  let host = Process.host proc in
  let costs = host.Host.costs in
  let counters = host.Host.counters in
  counters.Host.syscalls <- counters.Host.syscalls + 1;
  ignore (Host.charge host (Time.add costs.Cost_model.syscall_entry extra));
  host

let listen proc ~backlog =
  if backlog <= 0 then Error `Einval
  else begin
    let host = enter proc Time.zero in
    let sock = Socket.create_listening ~host ~backlog in
    match Process.install_socket proc sock with
    | Ok fd -> Ok fd
    | Error `Emfile -> Error `Emfile
  end

let accept proc fd =
  let host = enter proc Time.zero in
  let costs = host.Host.costs in
  match Process.lookup_socket proc fd with
  | None -> Error `Ebadf
  | Some listener ->
      if Socket.accept_queue_length listener = 0 then Error `Eagain
      else
        let sock = Socket.accept_take listener in
        if not (Socket.reserve_kernel_memory sock) then begin
          (* Modeled kernel memory exhausted: the connection is
             dropped before an fd is minted (the RST reaches the
             client through the socket's TCP peer). *)
          Socket.reset sock;
          Socket.discard sock;
          Error `Enobufs
        end
        else begin
          ignore (Host.charge host costs.Cost_model.accept_syscall);
          host.Host.counters.Host.accepts <- host.Host.counters.Host.accepts + 1;
          match Process.install_socket proc sock with
          | Ok newfd -> Ok newfd
          | Error `Emfile ->
              (* Out of descriptors: the connection is dropped and
                 its arena slot reclaimed. *)
              Socket.reset sock;
              Socket.discard sock;
              Error `Emfile
        end

let read proc fd ~into =
  let host = enter proc Time.zero in
  let costs = host.Host.costs in
  ignore (Host.charge host costs.Cost_model.read_syscall);
  match Process.lookup_socket proc fd with
  | None -> Error `Ebadf
  | Some sock -> (
      match Socket.state sock with
      | Socket.Reset -> Ok Econnreset
      | Socket.Closed -> Error `Ebadf
      | Socket.Listening -> Error `Einval
      | Socket.Established | Socket.Peer_closed ->
          let bytes = Socket.drain sock in
          let text = Socket.take_payload sock in
          if bytes > 0 then begin
            ignore (Host.charge host (Cost_model.copy_cost costs ~bytes_len:bytes));
            into.text <- text;
            into.bytes <- bytes;
            Ok Data
          end
          else if Socket.state sock = Socket.Peer_closed then Ok Eof
          else Ok Eagain)

let write proc fd ~bytes_len =
  if bytes_len < 0 then Error `Einval
  else begin
    let host = enter proc Time.zero in
    let costs = host.Host.costs in
    ignore (Host.charge host costs.Cost_model.write_syscall);
    match Process.lookup_socket proc fd with
    | None -> Error `Ebadf
    | Some sock ->
        if Socket.state sock = Socket.Reset then Error `Econnreset
        else begin
          let accepted = Socket.write_reserve sock bytes_len in
          if accepted > 0 then begin
            ignore (Host.charge host (Cost_model.copy_cost costs ~bytes_len:accepted));
            Socket.transport_send sock accepted
          end;
          Ok accepted
        end
  end

let sendfile proc fd ~bytes_len =
  if bytes_len < 0 then Error `Einval
  else begin
    let host = enter proc Time.zero in
    let costs = host.Host.costs in
    ignore (Host.charge host costs.Cost_model.write_syscall);
    match Process.lookup_socket proc fd with
    | None -> Error `Ebadf
    | Some sock ->
        if Socket.state sock = Socket.Reset then Error `Econnreset
        else begin
          let accepted = Socket.write_reserve sock bytes_len in
          if accepted > 0 then begin
            ignore
              (Host.charge host (Cost_model.sendfile_cost costs ~bytes_len:accepted));
            Socket.transport_send sock accepted
          end;
          Ok accepted
        end
  end

let ring_attach proc fd ~slot_bytes =
  if slot_bytes <= 0 then Error `Einval
  else begin
    let host = enter proc Time.zero in
    let costs = host.Host.costs in
    match Process.lookup_socket proc fd with
    | None -> Error `Ebadf
    | Some sock -> (
        match Socket.state sock with
        | Socket.Established | Socket.Peer_closed ->
            (* Same one-time setup as the /dev/poll result region:
               allocating the ring and mapping it into user space. *)
            ignore (Host.charge host costs.Cost_model.mmap_setup);
            if Socket.ring_attach sock ~slot_bytes then Ok ()
            else Error `Enobufs
        | Socket.Reset -> Error `Econnreset
        | Socket.Listening | Socket.Closed -> Error `Einval)
  end

let ring_send proc fd ~bytes_len ~copy_bytes =
  if bytes_len < 0 || copy_bytes < 0 || copy_bytes > bytes_len then Error `Einval
  else begin
    let host = enter proc Time.zero in
    let costs = host.Host.costs in
    ignore (Host.charge host costs.Cost_model.write_syscall);
    match Process.lookup_socket proc fd with
    | None -> Error `Ebadf
    | Some sock ->
        if Socket.state sock = Socket.Reset then Error `Econnreset
        else begin
          match Socket.ring_reserve sock bytes_len ~copy_bytes with
          | None -> Error `Einval
          | Some (accepted, pages) ->
              if accepted > 0 then begin
                (* Selective mode copies the first [copy_bytes] through
                   the buffer (headers); everything past them was pinned
                   into the ring and is charged per page, not per byte. *)
                let copied = Stdlib.min accepted copy_bytes in
                if copied > 0 then
                  ignore
                    (Host.charge host (Cost_model.copy_cost costs ~bytes_len:copied));
                if pages > 0 then
                  ignore (Host.charge host (Cost_model.page_map_cost costs ~pages));
                Socket.transport_send sock accepted
              end;
              Ok accepted
        end
  end

let close proc fd =
  let host = enter proc Time.zero in
  let costs = host.Host.costs in
  match Fd_table.close (Process.fds proc) fd with
  | None -> Error `Ebadf
  | Some (Process.Sock { sock; _ }) ->
      ignore (Host.charge host costs.Cost_model.close_syscall);
      Socket.close sock;
      Ok ()
  | Some (Process.Dev dev) ->
      ignore (Host.charge host costs.Cost_model.close_syscall);
      Devpoll.close dev;
      Ok ()

let fcntl_setsig
    proc fd ~signo =
  match Process.lookup_socket proc fd with
  | None -> Error `Ebadf
  | Some sock ->
      Rt_signal.set_signal (Process.rt_queue proc) ~socket:sock ~fd ~signo;
      Ok ()

let fcntl_clearsig
    proc fd =
  match Process.lookup_socket proc fd with
  | None -> Error `Ebadf
  | Some sock ->
      Rt_signal.clear_signal (Process.rt_queue proc) ~socket:sock ~fd;
      Ok ()

let[@complexity "O(interests)"] poll proc
    ~interests ~timeout ~k =
  Poll.wait ~host:(Process.host proc)
    ~lookup:(Process.lookup_socket proc)
    ~interests ~timeout ~k

let devpoll_open proc =
  let host = enter proc Time.zero in
  let dev = Devpoll.create ~host ~lookup:(Process.lookup_socket proc) in
  match Fd_table.alloc (Process.fds proc) (Process.Dev dev) with
  | Ok fd -> Ok fd
  | Error `Emfile -> Error `Emfile

let devpoll_write
    proc fd entries =
  match Process.lookup_devpoll proc fd with
  | None -> Error `Ebadf
  | Some dev ->
      Devpoll.write dev entries;
      Ok ()

let devpoll_alloc_map
    proc fd ~slots =
  match Process.lookup_devpoll proc fd with
  | None -> Error `Ebadf
  | Some dev ->
      Devpoll.alloc_result_map dev ~slots;
      Ok ()

let[@complexity "O(active)"] devpoll_wait
    proc fd ~max_results ~timeout ~k =
  match Process.lookup_devpoll proc fd with
  | None -> Error `Ebadf
  | Some dev ->
      Devpoll.dp_poll dev ~max_results ~timeout ~k;
      Ok ()

let[@complexity "O(ready)"] sigwaitinfo
    proc ~k =
  Rt_signal.sigwaitinfo (Process.rt_queue proc) ~k

let[@complexity "O(ready)"] sigtimedwait4
    proc ~max ~timeout ~k =
  Rt_signal.sigtimedwait4 (Process.rt_queue proc) ~max ~timeout ~k

(* Flushing the queue is a syscall like any other (the real server
   does it with a signal-mask round trip); it was the one entry point
   that cost nothing. *)
let flush_signals proc =
  ignore (enter proc Time.zero);
  Rt_signal.flush (Process.rt_queue proc)

let compute proc cost = ignore (Host.charge (Process.host proc) cost)

let yield proc k = Host.charge_run (Process.host proc) ~cost:Time.zero k
