(* End-to-end tests of the syscall layer plus the TCP/network plumbing:
   a lightweight client talks to a server process through the simulated
   switch. *)

open Sio_sim
open Sio_kernel

let test_connect_accept_roundtrip () =
  let rig = Helpers.mk_rig () in
  let established = ref false in
  let handlers = { Tcp.null_handlers with on_established = (fun _ -> established := true) } in
  let _conn = Tcp.connect ~net:rig.net ~listener:rig.listener ~handlers () in
  Engine.run rig.engine;
  Alcotest.(check bool) "client established" true !established;
  Alcotest.(check int) "accept queue" 1 (Socket.accept_queue_length rig.listener);
  match Helpers.accept rig.proc rig.listen_fd with
  | Ok (fd, sock) ->
      Alcotest.(check bool) "fresh fd" true (fd > rig.listen_fd);
      Alcotest.(check bool) "established sock" true (Socket.state sock = Socket.Established);
      Alcotest.(check int) "accept counted" 1 rig.host.Host.counters.Host.accepts
  | Error _ -> Alcotest.fail "accept failed"

let test_accept_empty_queue_eagain () =
  let rig = Helpers.mk_rig () in
  match Helpers.accept rig.proc rig.listen_fd with
  | Error `Eagain -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Eagain"

let test_request_reaches_server () =
  let rig = Helpers.mk_rig () in
  let conn = ref None in
  let handlers =
    { Tcp.null_handlers with on_established = (fun c -> conn := Some c) }
  in
  let _ = Tcp.connect ~net:rig.net ~listener:rig.listener ~handlers () in
  Engine.run rig.engine;
  (match !conn with
  | Some c -> Tcp.client_send c ~bytes_len:18 ~payload:"GET / HTTP/1.0\r\n\r\n"
  | None -> Alcotest.fail "no connection");
  Engine.run rig.engine;
  let fd, _sock = Helpers.ok (Helpers.accept rig.proc rig.listen_fd) in
  let rbuf = Kernel.read_buf () in
  match Kernel.read rig.proc fd ~into:rbuf with
  | Ok Kernel.Data ->
      Alcotest.(check string) "payload" "GET / HTTP/1.0\r\n\r\n" rbuf.Kernel.text;
      Alcotest.(check int) "bytes" 18 rbuf.Kernel.bytes
  | Ok _ | Error _ -> Alcotest.fail "expected data"

let test_response_reaches_client () =
  let rig = Helpers.mk_rig () in
  let got_bytes = ref 0 in
  let conn = ref None in
  let handlers =
    {
      Tcp.null_handlers with
      on_established = (fun c -> conn := Some c);
      on_bytes = (fun _ n -> got_bytes := !got_bytes + n);
    }
  in
  let _ = Tcp.connect ~net:rig.net ~listener:rig.listener ~handlers () in
  Engine.run rig.engine;
  let fd, _ = Helpers.ok (Helpers.accept rig.proc rig.listen_fd) in
  let written = Helpers.ok (Kernel.write rig.proc fd ~bytes_len:6144) in
  Alcotest.(check int) "write accepted" 6144 written;
  Engine.run rig.engine;
  Alcotest.(check int) "client received all" 6144 !got_bytes

let test_server_close_fin () =
  let rig = Helpers.mk_rig () in
  let fin = ref false in
  let handlers = { Tcp.null_handlers with on_server_fin = (fun _ -> fin := true) } in
  let _ = Tcp.connect ~net:rig.net ~listener:rig.listener ~handlers () in
  Engine.run rig.engine;
  let fd, _ = Helpers.ok (Helpers.accept rig.proc rig.listen_fd) in
  ignore (Helpers.ok (Kernel.close rig.proc fd));
  Engine.run rig.engine;
  Alcotest.(check bool) "client saw FIN" true !fin;
  match Helpers.read rig.proc fd with
  | Error `Ebadf -> ()
  | Ok _ | Error _ -> Alcotest.fail "fd should be closed"

let test_client_close_eof () =
  let rig = Helpers.mk_rig () in
  let conn = ref None in
  let handlers = { Tcp.null_handlers with on_established = (fun c -> conn := Some c) } in
  let _ = Tcp.connect ~net:rig.net ~listener:rig.listener ~handlers () in
  Engine.run rig.engine;
  let fd, _ = Helpers.ok (Helpers.accept rig.proc rig.listen_fd) in
  (match !conn with Some c -> Tcp.client_close c | None -> Alcotest.fail "no conn");
  Engine.run rig.engine;
  match Helpers.read rig.proc fd with
  | Ok Kernel.Eof -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected EOF"

let test_client_abort_resets () =
  let rig = Helpers.mk_rig () in
  let conn = ref None in
  let handlers = { Tcp.null_handlers with on_established = (fun c -> conn := Some c) } in
  let _ = Tcp.connect ~net:rig.net ~listener:rig.listener ~handlers () in
  Engine.run rig.engine;
  let fd, _ = Helpers.ok (Helpers.accept rig.proc rig.listen_fd) in
  (match !conn with Some c -> Tcp.client_abort c | None -> Alcotest.fail "no conn");
  Engine.run rig.engine;
  match Helpers.read rig.proc fd with
  | Ok Kernel.Econnreset -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected ECONNRESET"

let test_backlog_overflow_refuses () =
  let rig = Helpers.mk_rig ~backlog:2 () in
  let refused = ref 0 and established = ref 0 in
  let handlers =
    {
      Tcp.null_handlers with
      on_refused = (fun _ -> incr refused);
      on_established = (fun _ -> incr established);
    }
  in
  for _ = 1 to 5 do
    ignore (Tcp.connect ~net:rig.net ~listener:rig.listener ~handlers ())
  done;
  Engine.run rig.engine;
  Alcotest.(check int) "two fit the backlog" 2 !established;
  Alcotest.(check int) "three refused" 3 !refused;
  Alcotest.(check int) "refusals counted" 3 rig.host.Host.counters.Host.connections_refused

let test_fd_exhaustion_on_accept () =
  let rig = Helpers.mk_rig ~fd_limit:2 () in
  (* listener occupies fd 0; one accept fits, the next hits Emfile. *)
  let resets = ref 0 in
  let handlers = { Tcp.null_handlers with on_reset = (fun _ -> incr resets) } in
  ignore (Tcp.connect ~net:rig.net ~listener:rig.listener ~handlers ());
  ignore (Tcp.connect ~net:rig.net ~listener:rig.listener ~handlers ());
  Engine.run rig.engine;
  (match Helpers.accept rig.proc rig.listen_fd with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "first accept should fit");
  (match Helpers.accept rig.proc rig.listen_fd with
  | Error `Emfile -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Emfile");
  Engine.run rig.engine;
  Alcotest.(check int) "dropped connection reset the client" 1 !resets

let test_handshake_takes_one_rtt () =
  let rig = Helpers.mk_rig () in
  let established_at = ref None in
  let handlers =
    {
      Tcp.null_handlers with
      on_established = (fun _ -> established_at := Some (Engine.now rig.engine));
    }
  in
  let _ = Tcp.connect ~net:rig.net ~listener:rig.listener ~handlers () in
  Engine.run rig.engine;
  match !established_at with
  | Some t ->
      let rtt = Sio_net.Network.rtt rig.net in
      Alcotest.(check bool) "about one RTT" true (t >= rtt && t < Time.add rtt (Time.ms 1))
  | None -> Alcotest.fail "never established"

let test_extra_latency_slows_handshake () =
  let rig = Helpers.mk_rig () in
  let at = ref None in
  let handlers =
    { Tcp.null_handlers with on_established = (fun _ -> at := Some (Engine.now rig.engine)) }
  in
  let _ =
    Tcp.connect ~net:rig.net ~listener:rig.listener ~extra_latency:(Time.ms 100)
      ~handlers ()
  in
  Engine.run rig.engine;
  match !at with
  | Some t -> Alcotest.(check bool) "at least 200ms" true (t >= Time.ms 200)
  | None -> Alcotest.fail "never established"

let test_write_to_closed_fd () =
  let rig = Helpers.mk_rig () in
  match Kernel.write rig.proc 99 ~bytes_len:10 with
  | Error `Ebadf -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Ebadf"

let test_listen_invalid_backlog () =
  let rig = Helpers.mk_rig () in
  match Kernel.listen rig.proc ~backlog:0 with
  | Error `Einval -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Einval"

let test_devpoll_via_syscalls () =
  let rig = Helpers.mk_rig () in
  let conn = ref None in
  let handlers = { Tcp.null_handlers with on_established = (fun c -> conn := Some c) } in
  let _ = Tcp.connect ~net:rig.net ~listener:rig.listener ~handlers () in
  Engine.run rig.engine;
  let fd, _ = Helpers.ok (Helpers.accept rig.proc rig.listen_fd) in
  let dpfd = Helpers.ok (Kernel.devpoll_open rig.proc) in
  ignore (Helpers.ok (Kernel.devpoll_write rig.proc dpfd [ (fd, Pollmask.pollin) ]));
  let got = ref [] in
  (match
     Kernel.devpoll_wait rig.proc dpfd ~max_results:4 ~timeout:None
       ~k:(fun rs -> got := Ready_buffer.to_list rs)
   with
  | Ok () -> ()
  | Error `Ebadf -> Alcotest.fail "devpoll_wait Ebadf");
  (match !conn with
  | Some c -> Tcp.client_send c ~bytes_len:10 ~payload:"0123456789"
  | None -> Alcotest.fail "no conn");
  Engine.run rig.engine;
  match !got with
  | [ r ] -> Alcotest.(check int) "fd reported" fd r.Poll.fd
  | rs -> Alcotest.failf "expected one result, got %d" (List.length rs)

let test_rt_signals_via_syscalls () =
  let rig = Helpers.mk_rig () in
  let conn = ref None in
  let handlers = { Tcp.null_handlers with on_established = (fun c -> conn := Some c) } in
  let _ = Tcp.connect ~net:rig.net ~listener:rig.listener ~handlers () in
  Engine.run rig.engine;
  let fd, _ = Helpers.ok (Helpers.accept rig.proc rig.listen_fd) in
  ignore (Helpers.ok (Kernel.fcntl_setsig rig.proc fd ~signo:Rt_signal.sigrtmin));
  let got = ref None in
  Kernel.sigwaitinfo rig.proc ~k:(fun d -> got := Some d);
  (match !conn with
  | Some c -> Tcp.client_send c ~bytes_len:4 ~payload:"ping"
  | None -> Alcotest.fail "no conn");
  Engine.run rig.engine;
  match !got with
  | Some (Rt_signal.Signal { fd = sfd; _ }) -> Alcotest.(check int) "fd in siginfo" fd sfd
  | Some Rt_signal.Overflow | None -> Alcotest.fail "expected signal"

let test_compute_charges_cpu () =
  let rig = Helpers.mk_rig ~costs:Cost_model.default () in
  let before = Cpu.total_busy rig.host.Host.cpu in
  Kernel.compute rig.proc (Time.ms 5);
  Alcotest.(check int) "charged" (Time.ms 5) (Time.sub (Cpu.total_busy rig.host.Host.cpu) before)

let suite =
  [
    Alcotest.test_case "connect/accept roundtrip" `Quick test_connect_accept_roundtrip;
    Alcotest.test_case "accept on empty queue" `Quick test_accept_empty_queue_eagain;
    Alcotest.test_case "request reaches server" `Quick test_request_reaches_server;
    Alcotest.test_case "response reaches client" `Quick test_response_reaches_client;
    Alcotest.test_case "server close sends FIN" `Quick test_server_close_fin;
    Alcotest.test_case "client close reads EOF" `Quick test_client_close_eof;
    Alcotest.test_case "client abort resets" `Quick test_client_abort_resets;
    Alcotest.test_case "backlog overflow refuses" `Quick test_backlog_overflow_refuses;
    Alcotest.test_case "fd exhaustion on accept" `Quick test_fd_exhaustion_on_accept;
    Alcotest.test_case "handshake takes one RTT" `Quick test_handshake_takes_one_rtt;
    Alcotest.test_case "extra latency slows handshake" `Quick test_extra_latency_slows_handshake;
    Alcotest.test_case "write to closed fd" `Quick test_write_to_closed_fd;
    Alcotest.test_case "listen validates backlog" `Quick test_listen_invalid_backlog;
    Alcotest.test_case "/dev/poll via syscalls" `Quick test_devpoll_via_syscalls;
    Alcotest.test_case "RT signals via syscalls" `Quick test_rt_signals_via_syscalls;
    Alcotest.test_case "compute charges CPU" `Quick test_compute_charges_cpu;
  ]
