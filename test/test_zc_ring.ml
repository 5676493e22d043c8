(* The zero-copy transmit ring: page accounting in Zc_ring itself,
   memory-budget admission, and the ring syscalls (ring_attach /
   ring_send) end to end against the TCP plumbing — including the
   cost-model claim the response-size figure rests on: per-page map
   charges undercut per-byte copy charges for page-scale payloads. *)

open Sio_sim
open Sio_kernel

let mk_host ?mem_limit () =
  let engine = Engine.create ~seed:7 () in
  Host.create ~engine ~costs:Cost_model.zero ?mem_limit ()

(* --- Zc_ring unit --- *)

let test_page_accounting () =
  let host = mk_host () in
  let r =
    match Zc_ring.create ~host ~slots:4 ~slot_bytes:4096 with
    | Some r -> r
    | None -> Alcotest.fail "create refused with unlimited memory"
  in
  Alcotest.(check int) "capacity" 16384 (Zc_ring.capacity r);
  Alcotest.(check int) "slot bytes" 4096 (Zc_ring.slot_bytes r);
  (* First byte of a page is what occupies it. *)
  Alcotest.(check int) "first map occupies one page" 1 (Zc_ring.map r ~bytes:100);
  Alcotest.(check int) "filling that page adds none" 0 (Zc_ring.map r ~bytes:3996);
  Alcotest.(check int) "one byte over occupies the next" 1 (Zc_ring.map r ~bytes:1);
  Alcotest.(check int) "pinned" 4097 (Zc_ring.pinned r);
  Alcotest.(check int) "cumulative pages" 2 (Zc_ring.pages_mapped r);
  Alcotest.(check int) "unmap frees whole pages crossed" 1 (Zc_ring.unmap r ~bytes:4096);
  Alcotest.(check int) "pinned after drain" 1 (Zc_ring.pinned r);
  Alcotest.(check int) "high water survives draining" 4097 (Zc_ring.high_water r);
  Zc_ring.destroy r

let test_map_clamps_to_capacity () =
  let host = mk_host () in
  let r = Option.get (Zc_ring.create ~host ~slots:4 ~slot_bytes:4096) in
  Alcotest.(check int) "oversized map pins full ring" 4 (Zc_ring.map r ~bytes:100_000);
  Alcotest.(check int) "pinned clamped" 16384 (Zc_ring.pinned r);
  Alcotest.(check int) "further map is a no-op" 0 (Zc_ring.map r ~bytes:1);
  Alcotest.(check int) "drain frees all pages" 4 (Zc_ring.unmap r ~bytes:100_000);
  Alcotest.(check int) "drain clamped to pinned" 0 (Zc_ring.pinned r);
  Zc_ring.destroy r

let test_memory_admission () =
  let host = mk_host ~mem_limit:8192 () in
  let r =
    match Zc_ring.create ~host ~slots:2 ~slot_bytes:4096 with
    | Some r -> r
    | None -> Alcotest.fail "fits the budget exactly"
  in
  Alcotest.(check int) "reservation visible" 8192 host.Host.mem_used;
  (match Zc_ring.create ~host ~slots:1 ~slot_bytes:4096 with
  | None -> ()
  | Some _ -> Alcotest.fail "budget exhausted, create must refuse");
  Zc_ring.destroy r;
  Alcotest.(check int) "destroy releases" 0 host.Host.mem_used;
  Zc_ring.destroy r;
  Alcotest.(check int) "destroy idempotent" 0 host.Host.mem_used;
  Alcotest.(check int) "dead ring maps nothing" 0 (Zc_ring.map r ~bytes:100);
  Alcotest.(check int) "dead ring unmaps nothing" 0 (Zc_ring.unmap r ~bytes:100)

let test_validation () =
  let host = mk_host () in
  Alcotest.check_raises "zero slots"
    (Invalid_argument "Zc_ring.create: slots must be positive") (fun () ->
      ignore (Zc_ring.create ~host ~slots:0 ~slot_bytes:4096));
  Alcotest.check_raises "zero slot bytes"
    (Invalid_argument "Zc_ring.create: slot_bytes must be positive") (fun () ->
      ignore (Zc_ring.create ~host ~slots:1 ~slot_bytes:0));
  let r = Option.get (Zc_ring.create ~host ~slots:1 ~slot_bytes:4096) in
  Alcotest.check_raises "negative map" (Invalid_argument "Zc_ring.map: negative size")
    (fun () -> ignore (Zc_ring.map r ~bytes:(-1)));
  Alcotest.check_raises "negative unmap" (Invalid_argument "Zc_ring.unmap: negative size")
    (fun () -> ignore (Zc_ring.unmap r ~bytes:(-1)));
  Zc_ring.destroy r

(* --- ring syscalls --- *)

(* An accepted connection under the default cost model, for syscall
   and cost assertions. *)
let accepted_conn ?mem_limit () =
  let engine = Engine.create ~seed:11 () in
  let host = Host.create ~engine ~costs:Cost_model.default ?mem_limit () in
  let net = Sio_net.Network.create ~engine () in
  let proc = Process.create ~host ~fd_limit:64 ~name:"srv" () in
  let listen_fd = Helpers.ok (Kernel.listen proc ~backlog:8) in
  let listener = Option.get (Process.lookup_socket proc listen_fd) in
  let conn = ref None in
  let received = ref 0 in
  let handlers =
    {
      Tcp.null_handlers with
      Tcp.on_established = (fun c -> conn := Some c);
      on_bytes = (fun _ n -> received := !received + n);
    }
  in
  ignore (Tcp.connect ~net ~listener ~handlers ());
  Engine.run engine;
  let fd, sock = Helpers.ok (Helpers.accept proc listen_fd) in
  (engine, host, proc, listen_fd, fd, sock, Option.get !conn, received)

let test_ring_attach_errors () =
  let _, _, proc, listen_fd, fd, _, _, _ = accepted_conn () in
  (match Kernel.ring_attach proc 99 ~slot_bytes:4096 with
  | Error `Ebadf -> ()
  | Ok () | Error _ -> Alcotest.fail "expected Ebadf");
  (match Kernel.ring_attach proc listen_fd ~slot_bytes:4096 with
  | Error `Einval -> ()
  | Ok () | Error _ -> Alcotest.fail "listener: expected Einval");
  (match Kernel.ring_attach proc fd ~slot_bytes:0 with
  | Error `Einval -> ()
  | Ok () | Error _ -> Alcotest.fail "slot_bytes 0: expected Einval")

let test_ring_send_requires_attach () =
  let _, _, proc, _, fd, _, _, _ = accepted_conn () in
  (match Kernel.ring_send proc fd ~bytes_len:4096 ~copy_bytes:0 with
  | Error `Einval -> ()
  | Ok _ | Error _ -> Alcotest.fail "no ring attached: expected Einval");
  ignore (Helpers.ok (Kernel.ring_attach proc fd ~slot_bytes:4096));
  (match Kernel.ring_send proc fd ~bytes_len:100 ~copy_bytes:200 with
  | Error `Einval -> ()
  | Ok _ | Error _ -> Alcotest.fail "copy_bytes > bytes_len: expected Einval");
  match Kernel.ring_send proc fd ~bytes_len:(-1) ~copy_bytes:0 with
  | Error `Einval -> ()
  | Ok _ | Error _ -> Alcotest.fail "negative length: expected Einval"

let test_ring_send_delivers_and_accounts_pages () =
  let engine, _, proc, _, fd, sock, _, received = accepted_conn () in
  ignore (Helpers.ok (Kernel.ring_attach proc fd ~slot_bytes:4096));
  Alcotest.(check bool) "attach idempotent" true
    (Kernel.ring_attach proc fd ~slot_bytes:4096 = Ok ());
  let sent = Helpers.ok (Kernel.ring_send proc fd ~bytes_len:16384 ~copy_bytes:0) in
  Alcotest.(check int) "all accepted" 16384 sent;
  let ring = Option.get (Socket.ring sock) in
  Alcotest.(check int) "four pages charged" 4 (Zc_ring.pages_mapped ring);
  Engine.run engine;
  Alcotest.(check int) "client received every byte" 16384 !received;
  Alcotest.(check int) "transmit completion unpinned the ring" 0 (Zc_ring.pinned ring)

let test_selective_copy_maps_only_the_body () =
  let _, _, proc, _, fd, sock, _, _ = accepted_conn () in
  ignore (Helpers.ok (Kernel.ring_attach proc fd ~slot_bytes:4096));
  (* 100 header bytes copy through the buffer; the remaining 8092
     pinned bytes span two pages. *)
  let sent = Helpers.ok (Kernel.ring_send proc fd ~bytes_len:8192 ~copy_bytes:100) in
  Alcotest.(check int) "all accepted" 8192 sent;
  let ring = Option.get (Socket.ring sock) in
  Alcotest.(check int) "only the mapped body occupies pages" 2
    (Zc_ring.pages_mapped ring);
  Alcotest.(check int) "pinned excludes the copied headers" 8092 (Zc_ring.pinned ring)

let test_ring_cheaper_than_copy_at_page_scale () =
  (* The figure's economics in one assertion: for a 16 KB payload,
     attach + per-page charges beat the per-byte copy (132 us vs
     410 us on the default model). *)
  let _, host_w, proc_w, _, fd_w, _, _, _ = accepted_conn () in
  let busy0 = Cpu.total_busy host_w.Host.cpu in
  ignore (Helpers.ok (Kernel.write proc_w fd_w ~bytes_len:16384));
  let copy_cost = Time.sub (Cpu.total_busy host_w.Host.cpu) busy0 in
  let _, host_r, proc_r, _, fd_r, _, _, _ = accepted_conn () in
  let busy0 = Cpu.total_busy host_r.Host.cpu in
  ignore (Helpers.ok (Kernel.ring_attach proc_r fd_r ~slot_bytes:4096));
  ignore (Helpers.ok (Kernel.ring_send proc_r fd_r ~bytes_len:16384 ~copy_bytes:0));
  let ring_cost = Time.sub (Cpu.total_busy host_r.Host.cpu) busy0 in
  Alcotest.(check bool)
    (Printf.sprintf "ring %dns < copy %dns" ring_cost copy_cost)
    true
    (ring_cost < copy_cost)

let test_reset_reports_econnreset () =
  let engine, _, proc, _, fd, _, client, _ = accepted_conn () in
  ignore (Helpers.ok (Kernel.ring_attach proc fd ~slot_bytes:4096));
  Tcp.client_abort client;
  Engine.run engine;
  (match Kernel.write proc fd ~bytes_len:100 with
  | Error `Econnreset -> ()
  | Ok _ | Error _ -> Alcotest.fail "write: expected Econnreset");
  (match Kernel.sendfile proc fd ~bytes_len:100 with
  | Error `Econnreset -> ()
  | Ok _ | Error _ -> Alcotest.fail "sendfile: expected Econnreset");
  match Kernel.ring_send proc fd ~bytes_len:100 ~copy_bytes:0 with
  | Error `Econnreset -> ()
  | Ok _ | Error _ -> Alcotest.fail "ring_send: expected Econnreset"

let test_attach_refused_when_budget_exhausted () =
  (* Measure the footprint of an accepted connection, then rebuild the
     world with a budget that fits the connection but not its ring. *)
  let _, host, proc, _, fd, _, _, _ = accepted_conn () in
  let baseline = host.Host.mem_used in
  ignore (Helpers.ok (Kernel.ring_attach proc fd ~slot_bytes:4096));
  let ring_bytes = host.Host.mem_used - baseline in
  Alcotest.(check bool) "ring reserves real bytes" true (ring_bytes > 0);
  ignore (Helpers.ok (Kernel.close proc fd));
  Alcotest.(check bool) "close releases conn and ring" true (host.Host.mem_used < baseline);
  let _, host2, proc2, _, fd2, _, _, _ =
    accepted_conn ~mem_limit:(baseline + ring_bytes - 1) ()
  in
  Alcotest.(check int) "same footprint" baseline host2.Host.mem_used;
  match Kernel.ring_attach proc2 fd2 ~slot_bytes:4096 with
  | Error `Enobufs -> ()
  | Ok () | Error _ -> Alcotest.fail "expected Enobufs"

let suite =
  [
    Alcotest.test_case "page accounting across map/unmap" `Quick test_page_accounting;
    Alcotest.test_case "map clamps to capacity" `Quick test_map_clamps_to_capacity;
    Alcotest.test_case "memory admission and idempotent destroy" `Quick
      test_memory_admission;
    Alcotest.test_case "argument validation" `Quick test_validation;
    Alcotest.test_case "ring_attach error cases" `Quick test_ring_attach_errors;
    Alcotest.test_case "ring_send requires an attached ring" `Quick
      test_ring_send_requires_attach;
    Alcotest.test_case "ring_send delivers and charges per page" `Quick
      test_ring_send_delivers_and_accounts_pages;
    Alcotest.test_case "selective copy maps only the body" `Quick
      test_selective_copy_maps_only_the_body;
    Alcotest.test_case "ring beats copy at page scale" `Quick
      test_ring_cheaper_than_copy_at_page_scale;
    Alcotest.test_case "reset connection reports ECONNRESET" `Quick
      test_reset_reports_econnreset;
    Alcotest.test_case "attach refused when budget exhausted" `Quick
      test_attach_refused_when_budget_exhausted;
  ]
