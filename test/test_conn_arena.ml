(* Admission control and arena hygiene: modeled kernel memory caps
   accept() exactly at the configured limit, refusals surface in
   Server_stats, slots and reserved bytes come back on close, and
   stale handles to a reused slot are inert — the reuse pattern of
   test_event_queue.ml, replayed at the arena and socket layers. *)

open Sio_sim
open Sio_kernel

(* Like Helpers.mk_rig, but with a kernel-memory budget on the host. *)
let mk_rig ?(costs = Cost_model.zero) ?(mem_limit = Stdlib.max_int) () =
  let engine = Engine.create ~seed:42 () in
  let host = Host.create ~engine ~costs ~mem_limit () in
  let net = Sio_net.Network.create ~engine () in
  let proc = Process.create ~host ~fd_limit:4096 ~name:"server" () in
  let listen_fd =
    match Kernel.listen proc ~backlog:512 with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "listen failed"
  in
  let listener =
    match Process.lookup_socket proc listen_fd with
    | Some s -> s
    | None -> Alcotest.fail "listener not installed"
  in
  (engine, host, net, proc, listen_fd, listener)

let connect_n ~net ~listener ~engine n =
  for _ = 1 to n do
    ignore (Tcp.connect ~net ~listener ~handlers:Tcp.null_handlers ())
  done;
  Engine.run engine

(* What one accepted connection reserves (sock struct + both buffer
   capacities), measured rather than hard-coded so the tests track the
   cost model. *)
let per_conn ?costs () =
  let engine, _, net, proc, listen_fd, listener = mk_rig ?costs () in
  connect_n ~net ~listener ~engine 1;
  match Helpers.accept proc listen_fd with
  | Ok (_, sock) -> Socket.kernel_memory_bytes sock
  | Error _ -> Alcotest.fail "probe accept failed"

let prop_admission_exact =
  QCheck.Test.make
    ~name:"accept refuses with Enobufs exactly at the memory limit" ~count:20
    QCheck.(pair (int_range 1 6) bool)
    (fun (k, tight) ->
      let bytes = per_conn () in
      (* A budget of k connections, optionally with one byte short of
         a (k+1)-th: admission must stop after exactly k either way. *)
      let slack = if tight then 0 else bytes - 1 in
      let engine, host, net, proc, listen_fd, listener =
        mk_rig ~mem_limit:((k * bytes) + slack) ()
      in
      connect_n ~net ~listener ~engine (k + 2);
      let rec drain acc =
        match Helpers.accept proc listen_fd with
        | Ok (fd, _) -> drain (fd :: acc)
        | Error e -> (List.rev acc, e)
      in
      let accepted, stop = drain [] in
      let refused_at_limit = stop = `Enobufs && List.length accepted = k in
      let counted = host.Host.counters.Host.accepts = k in
      (* Releasing one connection's bytes re-opens admission for the
         still-queued handshake. *)
      (match accepted with
      | fd :: _ -> ignore (Kernel.close proc fd)
      | [] -> ());
      Engine.run engine;
      let recovered =
        match Helpers.accept proc listen_fd with
        | Ok _ -> k > 0
        | Error _ -> false
      in
      refused_at_limit && counted && recovered)

let prop_close_reclaims_all =
  QCheck.Test.make
    ~name:"close returns every slot and every reserved byte" ~count:20
    QCheck.(int_range 1 15)
    (fun n ->
      let engine, host, net, proc, listen_fd, listener = mk_rig () in
      let baseline = Conn_arena.live_count host.Host.arena in
      connect_n ~net ~listener ~engine n;
      let fds =
        List.init n (fun _ ->
            match Helpers.accept proc listen_fd with
            | Ok (fd, _) -> fd
            | Error _ -> Alcotest.fail "accept failed")
      in
      let reserved = host.Host.mem_used = n * per_conn () in
      List.iter (fun fd -> ignore (Kernel.close proc fd)) fds;
      Engine.run engine;
      reserved
      && host.Host.mem_used = 0
      && host.Host.mem_peak >= n * per_conn ()
      && Conn_arena.live_count host.Host.arena = baseline)

let prop_stale_handle_inert =
  (* The Event_queue reuse pattern at the arena layer: a single-slot
     arena recycles slot 0 through every alloc/free round; handles
     carrying an old generation must read dead forever. *)
  QCheck.Test.make ~name:"reused slots stale every prior generation" ~count:100
    QCheck.(int_range 1 30)
    (fun rounds ->
      let a = Conn_arena.create ~initial_capacity:1 () in
      let ok = ref true in
      let prev = ref [] in
      for _ = 1 to rounds do
        let slot = Conn_arena.alloc a in
        let gen = a.Conn_arena.gen.{slot} in
        ok := !ok && slot = 0 && Conn_arena.is_live a ~slot ~gen;
        List.iter
          (fun g -> ok := !ok && not (Conn_arena.is_live a ~slot ~gen:g))
          !prev;
        prev := gen :: !prev;
        Conn_arena.free a slot
      done;
      !ok && Conn_arena.live_count a = 0 && Conn_arena.high_water a = 1)

let test_stale_socket_handle_inert () =
  let engine, _host, net, proc, listen_fd, listener = mk_rig () in
  connect_n ~net ~listener ~engine 2;
  let fd1, sock1 = Helpers.ok (Helpers.accept proc listen_fd) in
  ignore (Helpers.ok (Kernel.close proc fd1));
  Alcotest.(check bool) "closed handle reads Closed" true
    (Socket.state sock1 = Socket.Closed);
  Alcotest.(check int) "no bytes held by stale handle" 0
    (Socket.kernel_memory_bytes sock1);
  Alcotest.(check bool) "stale handle cannot reserve" false
    (Socket.reserve_kernel_memory sock1);
  (* The freed slot is recycled by the next accept; the old handle
     must not alias the new connection. *)
  let _, sock2 = Helpers.ok (Helpers.accept proc listen_fd) in
  Alcotest.(check bool) "new conn established" true
    (Socket.state sock2 = Socket.Established);
  Socket.reset sock1;
  Alcotest.(check bool) "reset through stale handle is inert" true
    (Socket.state sock2 = Socket.Established);
  Alcotest.(check bool) "new conn keeps its reservation" true
    (Socket.kernel_memory_bytes sock2 > 0);
  Alcotest.(check int) "stale handle still empty" 0
    (Socket.kernel_memory_bytes sock1)

let test_enobufs_counted_in_server_stats () =
  let open Sio_loadgen in
  let bytes = per_conn ~costs:Cost_model.default () in
  let budget = 20 in
  let workload =
    {
      Workload.default with
      Workload.request_rate = 50;
      total_connections = 60;
      inactive_connections = 100;
    }
  in
  let base =
    Experiment.default_config
      ~kind:(Experiment.Thttpd_epoll { max_events = 64 })
      ~workload
  in
  let cfg =
    { base with Experiment.kernel_mem_limit = Some (budget * bytes) }
  in
  let o = Experiment.run cfg in
  Alcotest.(check bool) "refusals counted in Server_stats" true
    (o.Experiment.server_stats.Sio_httpd.Server_stats.enobufs_drops > 0);
  Alcotest.(check bool) "peak never exceeds the limit" true
    (o.Experiment.kernel_mem_peak <= budget * bytes);
  Alcotest.(check bool) "some connections still admitted" true
    (o.Experiment.kernel_mem_peak >= bytes)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_admission_exact;
    QCheck_alcotest.to_alcotest prop_close_reclaims_all;
    QCheck_alcotest.to_alcotest prop_stale_handle_inert;
    Alcotest.test_case "stale socket handle is inert" `Quick
      test_stale_socket_handle_inert;
    Alcotest.test_case "Enobufs drops land in Server_stats" `Quick
      test_enobufs_counted_in_server_stats;
  ]
