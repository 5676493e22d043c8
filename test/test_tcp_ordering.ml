(* Ordering and latency-profile properties of the TCP/network layer. *)

open Sio_sim
open Sio_kernel

let test_data_before_fin () =
  (* FIFO links: the response must fully arrive before the FIN that
     follows it, at any message size. *)
  let rig = Helpers.mk_rig () in
  let events = ref [] in
  let handlers =
    {
      Tcp.null_handlers with
      Tcp.on_bytes = (fun _ n -> events := `Bytes n :: !events);
      on_server_fin = (fun _ -> events := `Fin :: !events);
    }
  in
  let _ = Tcp.connect ~net:rig.net ~listener:rig.listener ~handlers () in
  Engine.run ~until:(Time.ms 5) rig.engine;
  let fd, _ = Helpers.ok (Helpers.accept rig.proc rig.listen_fd) in
  ignore (Helpers.ok (Kernel.write rig.proc fd ~bytes_len:6144));
  ignore (Helpers.ok (Kernel.close rig.proc fd));
  Engine.run ~until:(Time.s 1) rig.engine;
  match List.rev !events with
  | [ `Bytes 6144; `Fin ] -> ()
  | other -> Alcotest.failf "unexpected order (%d events)" (List.length other)

let test_writes_arrive_in_order () =
  let rig = Helpers.mk_rig () in
  let chunks = ref [] in
  let handlers =
    { Tcp.null_handlers with Tcp.on_bytes = (fun _ n -> chunks := n :: !chunks) }
  in
  let _ = Tcp.connect ~net:rig.net ~listener:rig.listener ~handlers () in
  Engine.run ~until:(Time.ms 5) rig.engine;
  let fd, _ = Helpers.ok (Helpers.accept rig.proc rig.listen_fd) in
  List.iter
    (fun n -> ignore (Helpers.ok (Kernel.write rig.proc fd ~bytes_len:n)))
    [ 100; 200; 300 ];
  Engine.run ~until:(Time.s 1) rig.engine;
  Alcotest.(check (list int)) "in order" [ 100; 200; 300 ] (List.rev !chunks)

let test_send_buffer_backpressure () =
  (* Writes beyond the 64 KB send buffer are truncated until the wire
     drains it. *)
  let rig = Helpers.mk_rig () in
  let handlers = Tcp.null_handlers in
  let _ = Tcp.connect ~net:rig.net ~listener:rig.listener ~handlers () in
  Engine.run ~until:(Time.ms 5) rig.engine;
  let fd, _ = Helpers.ok (Helpers.accept rig.proc rig.listen_fd) in
  let first = Helpers.ok (Kernel.write rig.proc fd ~bytes_len:60_000) in
  let second = Helpers.ok (Kernel.write rig.proc fd ~bytes_len:60_000) in
  Alcotest.(check int) "first fits" 60_000 first;
  Alcotest.(check bool) "second truncated" true (second < 60_000);
  (* After the wire drains, space reappears. *)
  Engine.run ~until:(Time.s 2) rig.engine;
  let third = Helpers.ok (Kernel.write rig.proc fd ~bytes_len:10_000) in
  Alcotest.(check int) "space recovered" 10_000 third

let prop_modem_latency_delays_established =
  QCheck.Test.make ~name:"extra latency delays establishment proportionally" ~count:50
    QCheck.(int_range 0 500)
    (fun extra_ms ->
      let rig = Helpers.mk_rig () in
      let at = ref None in
      let handlers =
        {
          Tcp.null_handlers with
          Tcp.on_established = (fun _ -> at := Some (Engine.now rig.engine));
        }
      in
      let _ =
        Tcp.connect ~net:rig.net ~listener:rig.listener
          ~extra_latency:(Time.ms extra_ms) ~handlers ()
      in
      Engine.run ~until:(Time.s 12) rig.engine;
      match !at with
      | Some t -> t >= Time.ms (2 * extra_ms)
      | None -> false)

let suite =
  [
    Alcotest.test_case "data before FIN" `Quick test_data_before_fin;
    Alcotest.test_case "writes arrive in order" `Quick test_writes_arrive_in_order;
    Alcotest.test_case "send-buffer backpressure" `Quick test_send_buffer_backpressure;
    QCheck_alcotest.to_alcotest prop_modem_latency_delays_established;
  ]
