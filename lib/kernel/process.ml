type resource = Sock of { sock : Socket.t; boxed : Socket.t option } | Dev of Devpoll.t

type t = {
  name : string;
  host : Host.t;
  fds : resource Fd_table.t;
  rt_queue : Rt_signal.queue;
}

let create ~host ?(fd_limit = 1024) ?(rt_queue_limit = 1024) ~name () =
  {
    name;
    host;
    fds = Fd_table.create ~limit:fd_limit ();
    rt_queue = Rt_signal.create_queue ~host ~limit:rt_queue_limit ();
  }

let name t = t.name
let host t = t.host
let fds t = t.fds
let rt_queue t = t.rt_queue

let lookup_socket t fd =
  match Fd_table.find t.fds fd with
  | Some (Sock { boxed; _ }) -> boxed
  | Some (Dev _) | None -> None

let lookup_devpoll t fd =
  match Fd_table.find t.fds fd with
  | Some (Dev d) -> Some d
  | Some (Sock _) | None -> None

let install_socket t sock = Fd_table.alloc t.fds (Sock { sock; boxed = Some sock })
let open_fd_count t = Fd_table.count t.fds
