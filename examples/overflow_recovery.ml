(* RT-signal hazards, step by step.

   Reproduces the two failure modes Section 2 of the paper describes:

   - phase 1: events queued before a connection is closed remain on
     the RT signal queue, so the application picks up signals naming
     descriptors it has already closed (stale events);
   - phase 2: a burst of I/O completions overruns a deliberately tiny
     RT-signal queue; the kernel drops signals and raises SIGIO; the
     application flushes the queue and falls back to one recovery
     poll() so nothing is lost.

     dune exec examples/overflow_recovery.exe
*)

open Scalanio

let () =
  let engine = Engine.create ~seed:3 () in
  let host = Host.create ~engine () in
  let proc = Process.create ~host ~rt_queue_limit:4 ~name:"rtdemo" () in
  Fmt.pr "RT signal queue limit: 4 (kernel default is 1024)@.@.";

  let sockets =
    List.init 6 (fun i ->
        let s = Socket.create_established ~host in
        let fd =
          match Process.install_socket proc s with
          | Ok fd -> fd
          | Error `Emfile -> assert false
        in
        ignore (Kernel.fcntl_setsig proc fd ~signo:(Rt_signal.sigrtmin + 1));
        Fmt.pr "socket %d -> fd %d, F_SETSIG %d@." i fd (Rt_signal.sigrtmin + 1);
        (fd, s))
  in
  let q = Process.rt_queue proc in

  (* ---- Phase 1: stale events ---- *)
  Fmt.pr "@.phase 1: data arrives on fds 0 and 1...@.";
  (match sockets with
  | (_, s0) :: (_, s1) :: _ ->
      ignore (Socket.deliver s0 ~bytes_len:64 ~payload:"x");
      ignore (Socket.deliver s1 ~bytes_len:64 ~payload:"x")
  | _ -> assert false);
  Fmt.pr "...then fd 0 is closed before its signal is picked up.@.";
  ignore (Kernel.close proc 0);
  let handle d =
    match d with
    | Rt_signal.Signal { fd; band; _ } -> (
        match Process.lookup_socket proc fd with
        | Some _ ->
            Fmt.pr "<- signal: fd %d ready (%a)@." fd Pollmask.pp band;
            (* Consume the data so the next burst posts a fresh edge. *)
            ignore (Kernel.read proc fd ~into:(Kernel.read_buf ()))
        | None ->
            Fmt.pr "<- STALE signal: fd %d (%a) names a closed descriptor — ignored@."
              fd Pollmask.pp band)
    | Rt_signal.Overflow -> Fmt.pr "<- SIGIO (unexpected here)@."
  in
  let rec drain_phase1 () =
    if Rt_signal.pending q > 0 then
      Kernel.sigwaitinfo proc ~k:(fun d ->
          handle d;
          drain_phase1 ())
  in
  drain_phase1 ();
  Engine.run ~until:(Time.ms 5) engine;

  (* ---- Phase 2: queue overflow ---- *)
  Fmt.pr "@.phase 2: burst on all 5 remaining sockets (queue holds 4)...@.";
  List.iter
    (fun (fd, s) ->
      if fd <> 0 then ignore (Socket.deliver s ~bytes_len:64 ~payload:"y"))
    sockets;
  Fmt.pr "queued: %d signals, SIGIO pending: %b (dropped %d)@." (Rt_signal.pending q)
    (Rt_signal.sigio_pending q) host.Host.counters.Host.rt_dropped;
  Kernel.sigwaitinfo proc ~k:(fun d ->
      match d with
      | Rt_signal.Overflow ->
          Fmt.pr "<- SIGIO delivered FIRST (classic signals outrank RT): recovering@.";
          let dropped = Kernel.flush_signals proc in
          Fmt.pr "   flushed %d still-queued signals@." dropped;
          let interests =
            List.filter_map
              (fun (fd, _) ->
                if Fd_table.is_open (Process.fds proc) fd then Some (fd, Pollmask.pollin)
                else None)
              sockets
          in
          Kernel.poll proc ~interests ~timeout:(Some Time.zero) ~k:(fun results ->
              Fmt.pr "   recovery poll() found %d ready descriptors:@."
                (List.length results);
              List.iter
                (fun r -> Fmt.pr "     fd %d: %a@." r.Poll.fd Pollmask.pp r.Poll.revents)
                results)
      | Rt_signal.Signal _ -> Fmt.pr "<- unexpected RT signal before SIGIO@.");
  Engine.run ~until:(Time.ms 10) engine;
  Fmt.pr "@.moral: the RT queue is a bounded resource; servers must keep poll() ready@.";
  Fmt.pr "and must treat queued signals as hints that may be stale.@."
