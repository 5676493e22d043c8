open Sio_sim
open Sio_kernel

type config = {
  backlog : int;
  conn : Conn.config;
  idle_timeout : Time.t;
  sweep_period : Time.t;
  sweep_cost_per_conn : Time.t;
  sample_interval : Time.t;
  signo : int;
  sigtimedwait4_batch : int;
  switch_streak : int;
  max_events : int;
  low_watermark : int;
}

let default_config =
  {
    backlog = 128;
    conn = Conn.default_config;
    idle_timeout = Time.s 60;
    sweep_period = Time.s 10;
    sweep_cost_per_conn = Time.us 2;
    sample_interval = Time.s 1;
    signo = Rt_signal.sigrtmin + 1;
    sigtimedwait4_batch = 8;
    switch_streak = 4;
    max_events = 64;
    low_watermark = 4;
  }

type mode = Signals | Polling

type t = {
  proc : Process.t;
  config : config;
  listen_fd : int;
  listener : Socket.t;
  backend : Backend.t; (* /dev/poll state, maintained in both modes *)
  conns : Conn.t Fd_map.t;
  stats : Server_stats.t;
  mutable mode : mode;
  mutable full_batch_streak : int;
  mutable next_sweep : Time.t;
  mutable stopped : bool;
}

let now t = Host.now (Process.host t.proc)

let drop_conn t fd =
  ignore (Fd_map.remove t.conns fd);
  Backend.remove t.backend fd

let handle_conn_event t fd =
  if not (Fd_map.mem t.conns fd) then begin
    t.stats.Server_stats.stale_events <- t.stats.Server_stats.stale_events + 1;
    Kernel.compute t.proc t.config.conn.Conn.read_spin_cost
  end
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
        t.stats.Server_stats.bytes_sent <- t.stats.Server_stats.bytes_sent + n;
        t.stats.Server_stats.partial_writes <-
          t.stats.Server_stats.partial_writes + 1;
        (* The /dev/poll interest set is maintained in both modes, so
           one modify covers polling mode; in signal mode F_SETSIG
           already delivers POLLOUT edges. *)
        if not was_sending then Backend.modify t.backend fd Pollmask.pollout
    | Conn.Closed_by_peer ->
        t.stats.Server_stats.dropped_conns <- t.stats.Server_stats.dropped_conns + 1;
        drop_conn t fd

(* Data can arrive between the SYN and our F_SETSIG; no signal will
   ever announce it. Real signal-driven servers therefore try an
   immediate non-blocking read on every freshly accepted connection. *)
let accept_pending t =
  let rec go () =
    match Kernel.accept t.proc t.listen_fd with
    | Ok fd ->
        Fd_map.set t.conns fd (Conn.create ~fd ~now:(now t));
        (* Both registrations, kept concurrently: the cheap switch. *)
        ignore (Kernel.fcntl_setsig t.proc fd ~signo:t.config.signo);
        Backend.add t.backend fd Pollmask.pollin;
        t.stats.Server_stats.accepted <- t.stats.Server_stats.accepted + 1;
        handle_conn_event t fd;
        go ()
    | Error `Eagain -> ()
    | Error `Emfile ->
        t.stats.Server_stats.emfile_drops <- t.stats.Server_stats.emfile_drops + 1;
        go ()
    | Error `Enobufs ->
        t.stats.Server_stats.enobufs_drops <- t.stats.Server_stats.enobufs_drops + 1;
        go ()
    | Error (`Ebadf | `Einval) -> ()
  in
  go ()

let handle_fd t fd = if fd = t.listen_fd then accept_pending t else handle_conn_event t fd

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

let switch_to_polling t =
  t.stats.Server_stats.overflow_recoveries <-
    t.stats.Server_stats.overflow_recoveries + 1;
  t.stats.Server_stats.mode_switches <- t.stats.Server_stats.mode_switches + 1;
  (* The interest set already lives in the kernel: recovery is a flush
     plus a mode flag, not a per-connection handoff. *)
  ignore (Kernel.flush_signals t.proc);
  t.mode <- Polling

let switch_to_signals t ~k =
  t.stats.Server_stats.mode_switches <- t.stats.Server_stats.mode_switches + 1;
  ignore (Kernel.flush_signals t.proc);
  (* Drain anything that became ready between the flush and now; its
     edges predate the flush so no signal will ever announce it. *)
  Backend.wait t.backend ~timeout:(Some Time.zero) ~k:(fun events ->
      Ready_buffer.iter events (fun ev -> handle_fd t ev.Poll.fd);
      t.mode <- Signals;
      k ())

let rec loop t =
  if not t.stopped then begin
    let until_sweep = Time.max (Time.ns 1) (Time.sub t.next_sweep (now t)) in
    let continue () =
      if now t >= t.next_sweep then sweep t;
      Kernel.yield t.proc (fun () -> loop t)
    in
    match t.mode with
    | Signals ->
        Kernel.sigtimedwait4 t.proc ~max:t.config.sigtimedwait4_batch
          ~timeout:(Some until_sweep) ~k:(fun ds ->
            if not t.stopped then begin
              let overflowed =
                List.exists (function Rt_signal.Overflow -> true | Rt_signal.Signal _ -> false) ds
              in
              List.iter
                (function
                  | Rt_signal.Signal { fd; _ } -> handle_fd t fd
                  | Rt_signal.Overflow -> ())
                ds;
              (* A run of full batches means the queue is backing up:
                 switch before it overflows. *)
              if List.length ds >= t.config.sigtimedwait4_batch then
                t.full_batch_streak <- t.full_batch_streak + 1
              else t.full_batch_streak <- 0;
              if overflowed then switch_to_polling t
              else if t.full_batch_streak >= t.config.switch_streak then begin
                t.full_batch_streak <- 0;
                t.stats.Server_stats.mode_switches <-
                  t.stats.Server_stats.mode_switches + 1;
                ignore (Kernel.flush_signals t.proc);
                t.mode <- Polling
              end;
              continue ()
            end)
    | Polling ->
        Backend.wait t.backend ~timeout:(Some until_sweep) ~k:(fun events ->
            if not t.stopped then begin
              Ready_buffer.iter events (fun ev -> handle_fd t ev.Poll.fd);
              if Ready_buffer.length events < t.config.low_watermark then
                switch_to_signals t ~k:continue
              else continue ()
            end)
  end

let start ~proc ?(config = default_config) () =
  match Kernel.listen proc ~backlog:config.backlog with
  | Error (`Emfile | `Ebadf | `Eagain | `Einval) -> Error `Emfile
  | Ok listen_fd -> (
      match Backend.devpoll ~max_events:config.max_events proc with
      | Error `Emfile -> Error `Emfile
      | Ok backend ->
          let listener =
            match Process.lookup_socket proc listen_fd with
            | Some s -> s
            | None -> assert false
          in
          let t =
            {
              proc;
              config;
              listen_fd;
              listener;
              backend;
              conns = Fd_map.create ~initial_capacity:256 ~dummy:Conn.none ();
              stats = Server_stats.create ~sample_interval:config.sample_interval ();
              mode = Signals;
              full_batch_streak = 0;
              next_sweep = Time.add (Host.now (Process.host proc)) config.sweep_period;
              stopped = false;
            }
          in
          ignore (Kernel.fcntl_setsig proc listen_fd ~signo:config.signo);
          Backend.add backend listen_fd Pollmask.pollin;
          loop t;
          Ok t)

let listener t = t.listener
let stats t = t.stats
let connection_count t = Fd_map.length t.conns
let mode t = t.mode
let stop t = t.stopped <- true
