open Sio_sim
open Sio_kernel

type config = {
  backlog : int;
  conn : Conn.config;
  idle_timeout : Time.t;
  sweep_period : Time.t;
  sweep_cost_per_conn : Time.t;
  sample_interval : Time.t;
  max_events_per_iter : int;
}

let default_config =
  {
    backlog = 128;
    conn = Conn.default_config;
    idle_timeout = Time.s 60;
    sweep_period = Time.s 10;
    sweep_cost_per_conn = Time.us 2;
    sample_interval = Time.s 1;
    max_events_per_iter = 8;
  }

type t = {
  proc : Process.t;
  backend : Backend.t;
  config : config;
  listen_fd : int;
  listener : Socket.t;
  conns : Conn.t Fd_map.t;
  stats : Server_stats.t;
  mutable next_sweep : Time.t;
  mutable stopped : bool;
  (* The loop's continuations, built once at start so an iteration
     allocates none. *)
  mutable on_events : Poll.result Ready_buffer.t -> unit;
  mutable resume : unit -> unit;
}

let now t = Host.now (Process.host t.proc)

let drop_conn t fd =
  ignore (Fd_map.remove t.conns fd);
  Backend.remove t.backend fd

let accept_pending t =
  let rec go () =
    match Kernel.accept t.proc t.listen_fd with
    | Ok fd ->
        Fd_map.set t.conns fd (Conn.create ~fd ~now:(now t));
        Backend.add t.backend fd Pollmask.pollin;
        t.stats.Server_stats.accepted <- t.stats.Server_stats.accepted + 1;
        go ()
    | Error `Eagain -> ()
    | Error `Emfile ->
        (* Connection was dropped by the kernel; try the next one. *)
        t.stats.Server_stats.emfile_drops <- t.stats.Server_stats.emfile_drops + 1;
        go ()
    | Error `Enobufs ->
        (* Kernel memory exhausted; the connection was dropped. *)
        t.stats.Server_stats.enobufs_drops <- t.stats.Server_stats.enobufs_drops + 1;
        go ()
    | Error (`Ebadf | `Einval) -> ()
  in
  go ()

let handle_conn_event t fd =
  if not (Fd_map.mem t.conns fd) then
    t.stats.Server_stats.stale_events <- t.stats.Server_stats.stale_events + 1
  else
    let conn = Fd_map.get t.conns fd in
    let was_sending = Conn.sending conn in
    match Conn.handle_event t.proc t.config.conn conn ~now:(now t) with
    | Conn.Replied n ->
        t.stats.Server_stats.bytes_sent <- t.stats.Server_stats.bytes_sent + n;
        Server_stats.record_reply t.stats ~now:(now t);
        drop_conn t fd
    | Conn.Again -> ()
    | Conn.Blocked n ->
        (* Response bigger than the send buffer: park the connection
           on POLLOUT and keep streaming on writable edges. *)
        t.stats.Server_stats.bytes_sent <- t.stats.Server_stats.bytes_sent + n;
        t.stats.Server_stats.partial_writes <-
          t.stats.Server_stats.partial_writes + 1;
        if not was_sending then Backend.modify t.backend fd Pollmask.pollout
    | Conn.Closed_by_peer ->
        t.stats.Server_stats.dropped_conns <- t.stats.Server_stats.dropped_conns + 1;
        drop_conn t fd

(* Walk all connections, closing the ones idle past the timeout. This
   is thttpd's periodic timer: its cost scales with the number of open
   connections, active or not. *)
let sweep t =
  let n = Fd_map.length t.conns in
  Kernel.compute t.proc (Time.mul t.config.sweep_cost_per_conn n);
  let cutoff = Time.sub (now t) t.config.idle_timeout in
  (* Fd_map iterates in ascending fd order and tolerates removal of
     the current key, so expired connections close in-place — same
     close order as the old snapshot-and-sort, without the snapshot. *)
  Fd_map.iter t.conns (fun fd conn ->
      if Conn.last_activity conn <= cutoff then begin
        ignore (Kernel.close t.proc fd);
        drop_conn t fd;
        t.stats.Server_stats.timed_out_conns <- t.stats.Server_stats.timed_out_conns + 1
      end);
  t.next_sweep <- Time.add (now t) t.config.sweep_period

let loop t =
  if not t.stopped then begin
    let until_sweep = Time.max (Time.ns 1) (Time.sub t.next_sweep (now t)) in
    Backend.wait t.backend ~timeout:(Some until_sweep) ~k:t.on_events
  end

let on_events t events =
  if not t.stopped then begin
    (* Bounded per-iteration work: anything beyond the cap stays
       ready and reappears in the next level-triggered scan. *)
    let n = Stdlib.min t.config.max_events_per_iter (Ready_buffer.length events) in
    for i = 0 to n - 1 do
      let fd = (Ready_buffer.get events i).Poll.fd in
      if fd = t.listen_fd then accept_pending t else handle_conn_event t fd
    done;
    if now t >= t.next_sweep then sweep t;
    Kernel.yield t.proc t.resume
  end

let start ~proc ~backend ?(config = default_config) () =
  match Kernel.listen proc ~backlog:config.backlog with
  | Error (`Emfile | `Ebadf | `Eagain | `Einval) -> Error `Emfile
  | Ok listen_fd ->
      let listener =
        match Process.lookup_socket proc listen_fd with
        | Some s -> s
        | None -> assert false
      in
      let t =
        {
          proc;
          backend;
          config;
          listen_fd;
          listener;
          conns = Fd_map.create ~initial_capacity:256 ~dummy:Conn.none ();
          stats = Server_stats.create ~sample_interval:config.sample_interval ();
          next_sweep = Time.add (Host.now (Process.host proc)) config.sweep_period;
          stopped = false;
          on_events = ignore;
          resume = ignore;
        }
      in
      t.on_events <- on_events t;
      t.resume <- (fun () -> loop t);
      Backend.add backend listen_fd Pollmask.pollin;
      loop t;
      Ok t

let listener t = t.listener
let stats t = t.stats
let connection_count t = Fd_map.length t.conns
let config t = t.config
let stop t = t.stopped <- true
