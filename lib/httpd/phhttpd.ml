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
  conn_table_cost_per_conn : Time.t;
  handoff_cost_per_conn : Time.t;
  rebuild_cost_per_conn : Time.t;
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
    signo = Rt_signal.sigrtmin + 1;
    conn_table_cost_per_conn = Time.ns 1_500;
    handoff_cost_per_conn = Time.us 30;
    rebuild_cost_per_conn = Time.us 3;
    max_events_per_iter = 8;
  }

type mode = Signals | Polling

type t = {
  proc : Process.t; (* the signal worker thread *)
  sibling : Process.t; (* the poll sibling (a Linux thread = own pid) *)
  config : config;
  listener : Socket.t;
  conns : Conn.t Fd_map.t;
  stats : Server_stats.t;
  mutable listen_fd : int; (* moves to the sibling's table on handoff *)
  mutable mode : mode;
  mutable handing_off : bool;
  mutable poll_backend : Backend.t option; (* the sibling's, after overflow *)
  mutable next_sweep : Time.t;
  mutable stopped : bool;
}

(* Which thread is doing the work right now. *)
let cur_proc t = match t.mode with Signals -> t.proc | Polling -> t.sibling

let now t = Host.now (Process.host t.proc)

let drop_conn t fd =
  ignore (Fd_map.remove t.conns fd);
  match t.poll_backend with Some b -> Backend.remove b fd | None -> ()

let handle_conn_event t fd =
  (* The unfinished server's connection bookkeeping walks state that
     grows with every open connection — the cache-pressure cost the
     paper suspects behind Figures 12-13. Charged per handled event,
     in both signal and polling modes. *)
  Kernel.compute (cur_proc t)
    (Time.mul t.config.conn_table_cost_per_conn (Fd_map.length t.conns));
  if not (Fd_map.mem t.conns fd) then begin
    (* A stale RT signal for a connection that is already gone: the
       hazard the paper warns about. It costs a little CPU to look up
       and discard. *)
    t.stats.Server_stats.stale_events <- t.stats.Server_stats.stale_events + 1;
    Kernel.compute (cur_proc t) t.config.conn.Conn.read_spin_cost
  end
  else
    let conn = Fd_map.get t.conns fd in
    let was_sending = Conn.sending conn in
    match Conn.handle_event (cur_proc t) t.config.conn conn ~now:(now t) with
    | Conn.Replied n ->
        t.stats.Server_stats.bytes_sent <- t.stats.Server_stats.bytes_sent + n;
        Server_stats.record_reply t.stats ~now:(now t);
        drop_conn t fd
    | Conn.Again -> ()
    | Conn.Blocked n ->
        t.stats.Server_stats.bytes_sent <- t.stats.Server_stats.bytes_sent + n;
        t.stats.Server_stats.partial_writes <-
          t.stats.Server_stats.partial_writes + 1;
        (* In signal mode nothing to do: F_SETSIG delivers POLLOUT
           edges through the same queue. The poll sibling must switch
           its recorded interest to writable. *)
        if not was_sending then (
          match (t.mode, t.poll_backend) with
          | Polling, Some b -> Backend.modify b fd Pollmask.pollout
          | (Signals | Polling), _ -> ())
    | Conn.Closed_by_peer ->
        t.stats.Server_stats.dropped_conns <- t.stats.Server_stats.dropped_conns + 1;
        drop_conn t fd

(* Data can arrive between the SYN and our F_SETSIG; no signal will
   ever announce it. Real signal-driven servers therefore try an
   immediate non-blocking read on every freshly accepted connection. *)
let accept_pending t =
  let rec go () =
    match Kernel.accept (cur_proc t) t.listen_fd with
    | Ok fd ->
        Fd_map.set t.conns fd (Conn.create ~fd ~now:(now t));
        (match t.mode with
        | Signals -> ignore (Kernel.fcntl_setsig t.proc fd ~signo:t.config.signo)
        | Polling -> (
            match t.poll_backend with
            | Some b -> Backend.add b fd Pollmask.pollin
            | None -> ()));
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

let sweep t =
  let n = Fd_map.length t.conns in
  Kernel.compute (cur_proc t) (Time.mul t.config.sweep_cost_per_conn n);
  let cutoff = Time.sub (now t) t.config.idle_timeout in
  (* Fd_map iterates in ascending fd order and tolerates removal of
     the current key, so expired connections close in-place — same
     close order as the old snapshot-and-sort, without the snapshot. *)
  Fd_map.iter t.conns (fun fd conn ->
      if Conn.last_activity conn <= cutoff then begin
        ignore (Kernel.close (cur_proc t) fd);
        drop_conn t fd;
        t.stats.Server_stats.timed_out_conns <- t.stats.Server_stats.timed_out_conns + 1
      end);
  t.next_sweep <- Time.add (now t) t.config.sweep_period

(* Move one descriptor from the signal worker's table to the poll
   sibling's: an SCM_RIGHTS message over their UNIX-domain socket pair,
   followed by the sibling growing its pollfd array. The socket itself
   is shared; only the descriptor changes hands (and number). *)
let transfer_fd t ~backend ~mask fd =
  match Fd_table.close (Process.fds t.proc) fd with
  | Some (Process.Sock { sock; _ }) when Socket.state sock <> Socket.Closed -> (
      match Process.install_socket t.sibling sock with
      | Ok new_fd ->
          Backend.add backend new_fd mask;
          Some (fd, new_fd, sock)
      | Error `Emfile ->
          Socket.reset sock;
          t.stats.Server_stats.emfile_drops <- t.stats.Server_stats.emfile_drops + 1;
          None)
  | Some _ | None -> None

(* Overflow recovery, as the paper describes it (Section 6): flush
   pending signals, then pass every connection — listener included —
   one at a time over a UNIX-domain socket to the poll sibling, which
   rebuilds its pollfd array from scratch. Each transfer takes real CPU
   time during which nobody serves requests: "the added work and
   inefficiency of transferring each connection one at a time … will
   probably result in server meltdown". The server then stays in
   polling mode forever ("Brown never implemented this logic"). *)
let overflow_recovery t ~k =
  t.stats.Server_stats.overflow_recoveries <- t.stats.Server_stats.overflow_recoveries + 1;
  t.stats.Server_stats.mode_switches <- t.stats.Server_stats.mode_switches + 1;
  t.handing_off <- true;
  ignore (Kernel.flush_signals t.proc);
  let backend = Backend.poll t.sibling in
  let host = Process.host t.proc in
  let per_fd = Time.add t.config.handoff_cost_per_conn t.config.rebuild_cost_per_conn in
  (* Handoff in ascending-fd order: each transfer costs simulated CPU,
     so the order is simulation-visible. Fd_map.to_list is already in
     that order; the snapshot survives the clear because transfers
     re-insert under the sibling's fd numbers as they complete. *)
  let entries = Fd_map.to_list t.conns in
  Fd_map.clear t.conns;
  let rec go work =
    match work with
    | [] ->
        t.poll_backend <- Some backend;
        t.mode <- Polling;
        t.handing_off <- false;
        k ()
    | `Listener :: rest ->
        Host.charge_run host ~cost:per_fd (fun () ->
            (match Fd_table.close (Process.fds t.proc) t.listen_fd with
            | Some (Process.Sock { sock; _ }) -> (
                match Process.install_socket t.sibling sock with
                | Ok new_fd ->
                    t.listen_fd <- new_fd;
                    Backend.add backend new_fd Pollmask.pollin
                | Error `Emfile -> Socket.close sock)
            | Some _ | None -> ());
            go rest)
    | `Conn (fd, conn) :: rest ->
        Host.charge_run host ~cost:per_fd (fun () ->
            (* A connection caught mid-send must come back as a
               writable interest or it stalls after the handoff. *)
            let mask =
              if Conn.sending conn then Pollmask.pollout else Pollmask.pollin
            in
            (match transfer_fd t ~backend ~mask fd with
            | Some (_, new_fd, _) ->
                Fd_map.set t.conns new_fd (Conn.with_fd conn ~fd:new_fd)
            | None -> ());
            go rest)
  in
  go (`Listener :: List.map (fun (fd, conn) -> `Conn (fd, conn)) entries)

let rec loop t =
  if not t.stopped then begin
    let until_sweep = Time.max (Time.ns 1) (Time.sub t.next_sweep (now t)) in
    let continue () =
      if now t >= t.next_sweep then sweep t;
      Kernel.yield (cur_proc t) (fun () -> loop t)
    in
    match t.mode with
    | Signals ->
        (* One event per syscall: sigwaitinfo semantics with the idle
           sweep's timeout. *)
        Kernel.sigtimedwait4 t.proc ~max:1 ~timeout:(Some until_sweep) ~k:(fun ds ->
            if not t.stopped then begin
              match ds with
              | [ Rt_signal.Signal { fd; _ } ] ->
                  if fd = t.listen_fd then accept_pending t else handle_conn_event t fd;
                  continue ()
              | [ Rt_signal.Overflow ] -> overflow_recovery t ~k:continue
              | [] -> continue ()
              | _ :: _ :: _ -> assert false
            end)
    | Polling -> (
        match t.poll_backend with
        | None -> assert false
        | Some backend ->
            Backend.wait backend ~timeout:(Some until_sweep) ~k:(fun events ->
                if not t.stopped then begin
                  let n = Stdlib.min t.config.max_events_per_iter (Ready_buffer.length events) in
                  for i = 0 to n - 1 do
                    let fd = (Ready_buffer.get events i).Poll.fd in
                    if fd = t.listen_fd then accept_pending t else handle_conn_event t fd
                  done;
                  continue ()
                end))
  end

let start ~proc ?(config = default_config) () =
  match Kernel.listen proc ~backlog:config.backlog with
  | Error (`Emfile | `Ebadf | `Eagain | `Einval) -> Error `Emfile
  | Ok listen_fd ->
      let listener =
        match Process.lookup_socket proc listen_fd with
        | Some s -> s
        | None -> assert false
      in
      let sibling =
        Process.create ~host:(Process.host proc)
          ~fd_limit:(Fd_table.limit (Process.fds proc))
          ~name:(Process.name proc ^ "-poll-sibling")
          ()
      in
      let t =
        {
          proc;
          sibling;
          config;
          listen_fd;
          listener;
          conns = Fd_map.create ~initial_capacity:256 ~dummy:Conn.none ();
          stats = Server_stats.create ~sample_interval:config.sample_interval ();
          mode = Signals;
          handing_off = false;
          poll_backend = None;
          next_sweep = Time.add (Host.now (Process.host proc)) config.sweep_period;
          stopped = false;
        }
      in
      ignore (Kernel.fcntl_setsig proc listen_fd ~signo:config.signo);
      loop t;
      Ok t

let listener t = t.listener
let stats t = t.stats
let connection_count t = Fd_map.length t.conns
let mode t = t.mode
let is_handing_off t = t.handing_off
let sibling t = t.sibling
let stop t = t.stopped <- true
