open Sio_kernel

let m = Helpers.mask

let mk () =
  let engine = Helpers.mk_engine () in
  let host = Helpers.mk_host engine in
  (engine, host)

let test_established_initial_status () =
  let _, host = mk () in
  let s = Socket.create_established ~host in
  Alcotest.check m "writable only" Pollmask.pollout (Socket.status s);
  Alcotest.(check bool) "state" true (Socket.state s = Socket.Established)

let test_listening_status_tracks_accept_queue () =
  let _, host = mk () in
  let l = Socket.create_listening ~host ~backlog:2 in
  Alcotest.check m "idle listener" Pollmask.empty (Socket.status l);
  let peer = Socket.create_established ~host in
  Alcotest.(check bool) "accepted" true (Socket.enqueue_accept l peer);
  Alcotest.check m "readable" Pollmask.pollin (Socket.status l);
  (match Socket.accept_pop l with
  | Some popped -> Alcotest.(check bool) "pop" true (popped == peer)
  | None -> Alcotest.fail "accept queue empty");
  Alcotest.check m "idle again" Pollmask.empty (Socket.status l)

let test_backlog_refuses () =
  let _, host = mk () in
  let l = Socket.create_listening ~host ~backlog:1 in
  let p1 = Socket.create_established ~host in
  let p2 = Socket.create_established ~host in
  Alcotest.(check bool) "first fits" true (Socket.enqueue_accept l p1);
  Alcotest.(check bool) "second refused" false (Socket.enqueue_accept l p2);
  Alcotest.(check int) "refusal counted" 1 host.Host.counters.Host.connections_refused

let test_deliver_makes_readable () =
  let _, host = mk () in
  let s = Socket.create_established ~host in
  let n = Socket.deliver s ~bytes_len:100 ~payload:"GET /" in
  Alcotest.(check int) "accepted" 100 n;
  Alcotest.(check bool) "readable" true (Pollmask.mem Pollmask.pollin (Socket.status s));
  let bytes, text = Socket.read_all s in
  Alcotest.(check int) "read bytes" 100 bytes;
  Alcotest.(check string) "payload" "GET /" text;
  Alcotest.(check bool) "drained" false (Pollmask.mem Pollmask.pollin (Socket.status s))

let test_deliver_accumulates_payload () =
  let _, host = mk () in
  let s = Socket.create_established ~host in
  ignore (Socket.deliver s ~bytes_len:3 ~payload:"GET");
  ignore (Socket.deliver s ~bytes_len:2 ~payload:" /");
  let _, text = Socket.read_all s in
  Alcotest.(check string) "concatenated" "GET /" text

let test_peer_close_gives_eof () =
  let _, host = mk () in
  let s = Socket.create_established ~host in
  Socket.peer_closed s;
  Alcotest.(check bool) "peer_closed state" true (Socket.state s = Socket.Peer_closed);
  Alcotest.(check bool) "POLLIN set" true (Pollmask.mem Pollmask.pollin (Socket.status s));
  Alcotest.(check bool) "POLLHUP set" true (Pollmask.mem Pollmask.pollhup (Socket.status s));
  let bytes, _ = Socket.read_all s in
  Alcotest.(check int) "EOF read" 0 bytes

let test_reset_gives_pollerr () =
  let _, host = mk () in
  let s = Socket.create_established ~host in
  Socket.reset s;
  Alcotest.(check bool) "POLLERR" true (Pollmask.mem Pollmask.pollerr (Socket.status s))

let test_close_gives_pollnval () =
  let _, host = mk () in
  let s = Socket.create_established ~host in
  Socket.close s;
  Alcotest.check m "nval" Pollmask.pollnval (Socket.status s);
  (* idempotent *)
  Socket.close s;
  Alcotest.(check bool) "still closed" true (Socket.state s = Socket.Closed)

let test_waiter_woken_on_deliver () =
  let _, host = mk () in
  let s = Socket.create_established ~host in
  let woken = ref Pollmask.empty in
  let w = { Socket.wake = (fun mask -> woken := mask) } in
  Socket.register_waiter s w;
  ignore (Socket.deliver s ~bytes_len:10 ~payload:"");
  Alcotest.check m "woken with POLLIN" Pollmask.pollin !woken;
  Alcotest.(check int) "waiter consumed" 0 (Socket.waiter_count s)

let test_no_edge_on_second_deliver () =
  let _, host = mk () in
  let s = Socket.create_established ~host in
  ignore (Socket.deliver s ~bytes_len:10 ~payload:"");
  let woken = ref 0 in
  let w = { Socket.wake = (fun _ -> incr woken) } in
  Socket.register_waiter s w;
  (* Buffer already non-empty: no new edge. *)
  ignore (Socket.deliver s ~bytes_len:10 ~payload:"");
  Alcotest.(check int) "no spurious wake" 0 !woken

let test_observer_edges () =
  let _, host = mk () in
  let s = Socket.create_established ~host in
  let edges = ref [] in
  let token = Socket.subscribe s (fun mask -> edges := mask :: !edges) in
  ignore (Socket.deliver s ~bytes_len:5 ~payload:"");
  Socket.peer_closed s;
  Alcotest.(check int) "two edges" 2 (List.length !edges);
  Socket.unsubscribe s token;
  Socket.reset s;
  Alcotest.(check int) "unsubscribed: no more" 2 (List.length !edges)

let test_write_reserve_states () =
  let _, host = mk () in
  let s = Socket.create_established ~host in
  Alcotest.(check int) "accepts" 6144 (Socket.write_reserve s 6144);
  Socket.reset s;
  Alcotest.(check int) "reset socket rejects" 0 (Socket.write_reserve s 100)

let test_release_send_space_pollout_edge () =
  let _, host = mk () in
  let s = Socket.create_established ~host in
  let cap = 65536 in
  ignore (Socket.write_reserve s cap);
  Alcotest.(check bool) "not writable when full" false
    (Pollmask.mem Pollmask.pollout (Socket.status s));
  let woken = ref Pollmask.empty in
  Socket.register_waiter s { Socket.wake = (fun mask -> woken := mask) };
  Socket.release_send_space s 1000;
  Alcotest.check m "POLLOUT edge" Pollmask.pollout !woken;
  Alcotest.(check bool) "writable again" true
    (Pollmask.mem Pollmask.pollout (Socket.status s))

let test_transport_hooks () =
  let _, host = mk () in
  let s = Socket.create_established ~host in
  let sent = ref 0 and closed = ref false in
  Socket.set_transport s ~on_send:(fun n -> sent := n) ~on_close:(fun () -> closed := true);
  ignore (Socket.write_reserve s 50);
  Socket.transport_send s 50;
  Alcotest.(check int) "on_send" 50 !sent;
  Socket.close s;
  Alcotest.(check bool) "on_close" true !closed

let test_driver_poll_counts () =
  let _, host = mk () in
  let s = Socket.create_established ~host in
  ignore (Socket.driver_poll s);
  ignore (Socket.driver_poll s);
  Alcotest.(check int) "driver polls counted" 2 host.Host.counters.Host.driver_polls

(* The watcher contract the cached poll probes rest on: whenever an
   operation changes a socket's status, its watchers fire. Random
   sequences drive an established socket and a listener through every
   status-changing operation, including the ones that post no edge
   (draining reads, filling writes, the last accept). *)
let prop_watcher_fires_on_status_change =
  QCheck.Test.make ~name:"watcher fires whenever status changes" ~count:500
    QCheck.(list_of_size Gen.(1 -- 40) (int_bound 10))
    (fun ops ->
      let _, host = mk () in
      let s = Socket.create_established ~host in
      let l = Socket.create_listening ~host ~backlog:4 in
      let fired = ref false in
      ignore (Socket.add_watcher s (fun () -> fired := true));
      ignore (Socket.add_watcher l (fun () -> fired := true));
      let apply = function
        | 0 -> ignore (Socket.deliver s ~bytes_len:3 ~payload:"abc")
        | 1 -> ignore (Socket.read_all s)
        | 2 -> ignore (Socket.write_reserve s 40_000)
        | 3 -> Socket.release_send_space s 30_000
        | 4 -> Socket.peer_closed s
        | 5 -> Socket.reset s
        | 6 -> Socket.close s
        | 7 -> ignore (Socket.enqueue_accept l (Socket.create_established ~host))
        | 8 -> ignore (Socket.accept_pop l)
        | 9 -> Socket.close l
        | _ -> Socket.release_send_space s 65_536
      in
      List.for_all
        (fun op ->
          let before = (Socket.status s, Socket.status l) in
          fired := false;
          apply op;
          before = (Socket.status s, Socket.status l) || !fired)
        ops)

let suite =
  [
    Alcotest.test_case "established initial status" `Quick test_established_initial_status;
    Alcotest.test_case "listener status tracks accept queue" `Quick
      test_listening_status_tracks_accept_queue;
    Alcotest.test_case "backlog refuses" `Quick test_backlog_refuses;
    Alcotest.test_case "deliver makes readable" `Quick test_deliver_makes_readable;
    Alcotest.test_case "payload accumulates" `Quick test_deliver_accumulates_payload;
    Alcotest.test_case "peer close gives EOF" `Quick test_peer_close_gives_eof;
    Alcotest.test_case "reset gives POLLERR" `Quick test_reset_gives_pollerr;
    Alcotest.test_case "close gives POLLNVAL" `Quick test_close_gives_pollnval;
    Alcotest.test_case "waiter woken on deliver" `Quick test_waiter_woken_on_deliver;
    Alcotest.test_case "level-triggered buffer, edge-posted wake" `Quick
      test_no_edge_on_second_deliver;
    Alcotest.test_case "observer edges" `Quick test_observer_edges;
    Alcotest.test_case "write_reserve respects state" `Quick test_write_reserve_states;
    Alcotest.test_case "POLLOUT edge on space release" `Quick
      test_release_send_space_pollout_edge;
    Alcotest.test_case "transport hooks" `Quick test_transport_hooks;
    Alcotest.test_case "driver_poll counts" `Quick test_driver_poll_counts;
    QCheck_alcotest.to_alcotest prop_watcher_fires_on_status_change;
  ]
