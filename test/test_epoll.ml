open Sio_sim
open Sio_kernel

type env = {
  engine : Engine.t;
  host : Host.t;
  sockets : (int, Socket.t) Hashtbl.t;
  ep : Epoll.t;
}

let mk ?costs () =
  let engine = Helpers.mk_engine () in
  let host =
    match costs with
    | Some c -> Helpers.mk_host ~costs:c engine
    | None -> Helpers.mk_host engine
  in
  let sockets = Hashtbl.create 8 in
  let ep = Epoll.create ~host ~lookup:(Hashtbl.find_opt sockets) in
  { engine; host; sockets; ep }

let add env fd =
  let s = Socket.create_established ~host:env.host in
  Hashtbl.replace env.sockets fd s;
  s

let as_pairs rs = List.map (fun r -> (r.Poll.fd, r.Poll.revents)) rs

let test_ctl_lifecycle () =
  let env = mk () in
  ignore (add env 1);
  Alcotest.(check bool) "add" true (Epoll.ctl_add env.ep ~fd:1 ~events:Pollmask.pollin () = Ok ());
  Alcotest.(check bool) "add again = Eexist" true
    (Epoll.ctl_add env.ep ~fd:1 ~events:Pollmask.pollin () = Error `Eexist);
  Alcotest.(check bool) "add bad fd" true
    (Epoll.ctl_add env.ep ~fd:9 ~events:Pollmask.pollin () = Error `Ebadf);
  Alcotest.(check bool) "mod" true (Epoll.ctl_mod env.ep ~fd:1 ~events:Pollmask.pollout = Ok ());
  Alcotest.(check bool) "del" true (Epoll.ctl_del env.ep ~fd:1 = Ok ());
  Alcotest.(check bool) "del again = Enoent" true (Epoll.ctl_del env.ep ~fd:1 = Error `Enoent);
  Alcotest.(check int) "empty" 0 (Epoll.interest_count env.ep)

let test_ready_event_delivered () =
  let env = mk () in
  let s = add env 3 in
  ignore (Epoll.ctl_add env.ep ~fd:3 ~events:Pollmask.pollin ());
  ignore (Socket.deliver s ~bytes_len:4 ~payload:"");
  let got = ref [] in
  Epoll.wait env.ep ~max_events:8 ~timeout:None
    ~k:(fun rs -> got := Ready_buffer.to_list rs);
  Engine.run env.engine;
  Alcotest.(check (list (pair int Helpers.mask))) "event" [ (3, Pollmask.pollin) ]
    (as_pairs !got)

let test_no_lost_startup_event () =
  (* The descriptor is already readable when registered. *)
  let env = mk () in
  let s = add env 1 in
  ignore (Socket.deliver s ~bytes_len:4 ~payload:"");
  ignore (Epoll.ctl_add env.ep ~fd:1 ~events:Pollmask.pollin ());
  let got = ref [] in
  Epoll.wait env.ep ~max_events:8 ~timeout:(Some Time.zero)
    ~k:(fun rs -> got := Ready_buffer.to_list rs);
  Engine.run env.engine;
  Alcotest.(check int) "found at first wait" 1 (List.length !got)

let test_level_triggered_requeues () =
  let env = mk () in
  let s = add env 1 in
  ignore (Epoll.ctl_add env.ep ~fd:1 ~events:Pollmask.pollin ());
  ignore (Socket.deliver s ~bytes_len:4 ~payload:"");
  let first = ref [] and second = ref [] in
  Epoll.wait env.ep ~max_events:8 ~timeout:(Some Time.zero)
    ~k:(fun rs -> first := Ready_buffer.to_list rs);
  Engine.run env.engine;
  (* Data not consumed: a level-triggered wait must report it again. *)
  Epoll.wait env.ep ~max_events:8 ~timeout:(Some Time.zero)
    ~k:(fun rs -> second := Ready_buffer.to_list rs);
  Engine.run env.engine;
  Alcotest.(check int) "first" 1 (List.length !first);
  Alcotest.(check int) "second (still ready)" 1 (List.length !second)

let test_edge_triggered_fires_once () =
  let env = mk () in
  let s = add env 1 in
  ignore (Epoll.ctl_add env.ep ~fd:1 ~events:Pollmask.pollin ~trigger:Epoll.Edge ());
  ignore (Socket.deliver s ~bytes_len:4 ~payload:"");
  let first = ref [] and second = ref [] in
  Epoll.wait env.ep ~max_events:8 ~timeout:(Some Time.zero)
    ~k:(fun rs -> first := Ready_buffer.to_list rs);
  Engine.run env.engine;
  Epoll.wait env.ep ~max_events:8 ~timeout:(Some Time.zero)
    ~k:(fun rs -> second := Ready_buffer.to_list rs);
  Engine.run env.engine;
  Alcotest.(check int) "first delivers" 1 (List.length !first);
  Alcotest.(check int) "second silent (no new edge)" 0 (List.length !second)

let test_stale_ready_entry_dropped () =
  let env = mk () in
  let s = add env 1 in
  ignore (Epoll.ctl_add env.ep ~fd:1 ~events:Pollmask.pollin ());
  ignore (Socket.deliver s ~bytes_len:4 ~payload:"");
  (* Readiness evaporates before the wait. *)
  ignore (Socket.read_all s);
  let got = ref [ { Poll.fd = -1; revents = Pollmask.empty } ] in
  Epoll.wait env.ep ~max_events:8 ~timeout:(Some Time.zero)
    ~k:(fun rs -> got := Ready_buffer.to_list rs);
  Engine.run env.engine;
  Alcotest.(check int) "stale entry dropped" 0 (List.length !got)

let test_blocks_until_event () =
  let env = mk () in
  let s = add env 1 in
  ignore (Epoll.ctl_add env.ep ~fd:1 ~events:Pollmask.pollin ());
  let at = ref None in
  Epoll.wait env.ep ~max_events:8 ~timeout:None ~k:(fun rs ->
      let rs = Ready_buffer.to_list rs in
      at := Some (Engine.now env.engine, List.length rs));
  ignore
    (Engine.at env.engine (Time.ms 9) (fun () ->
         ignore (Socket.deliver s ~bytes_len:1 ~payload:"")));
  Engine.run env.engine;
  Alcotest.(check (option (pair int int))) "woken" (Some (Time.ms 9, 1)) !at

(* Two calls asleep on one instance at once each keep their own
   timeout and continuation; a later call reuses the freed sleeper and
   is woken by an event, and no finished call's timer fires again. *)
let test_concurrent_and_reused_sleepers () =
  let env = mk () in
  let s = add env 1 in
  ignore (Epoll.ctl_add env.ep ~fd:1 ~events:Pollmask.pollin ());
  let log = ref [] in
  let record name rs =
    log := (name, Engine.now env.engine, Ready_buffer.length rs) :: !log
  in
  Epoll.wait env.ep ~max_events:8 ~timeout:(Some (Time.ms 5)) ~k:(record "a");
  Epoll.wait env.ep ~max_events:8 ~timeout:(Some (Time.ms 10)) ~k:(record "b");
  Engine.run ~until:(Time.ms 15) env.engine;
  Epoll.wait env.ep ~max_events:8 ~timeout:(Some (Time.ms 50)) ~k:(record "c");
  ignore
    (Engine.at env.engine (Time.ms 20) (fun () ->
         ignore (Socket.deliver s ~bytes_len:1 ~payload:"")));
  Engine.run env.engine;
  Alcotest.(check (list (triple string int int)))
    "each call returns once, at its own time"
    [ ("a", Time.ms 5, 0); ("b", Time.ms 10, 0); ("c", Time.ms 20, 1) ]
    (List.rev !log)

let test_wait_cost_independent_of_interest_size () =
  (* The whole point of the ready list: 1000 idle interests cost the
     same as 10 at wait time. *)
  let cost n =
    let env = mk ~costs:Cost_model.default () in
    for fd = 0 to n - 1 do
      ignore (add env fd);
      ignore (Epoll.ctl_add env.ep ~fd ~events:Pollmask.pollin ())
    done;
    let before = Cpu.total_busy env.host.Host.cpu in
    Epoll.wait env.ep ~max_events:8 ~timeout:(Some Time.zero) ~k:(fun _ -> ());
    Engine.run env.engine;
    Time.sub (Cpu.total_busy env.host.Host.cpu) before
  in
  let c10 = cost 10 and c1000 = cost 1000 in
  Alcotest.(check bool) "same wait cost" true (c1000 < 2 * c10)

let test_closed_fd_reports_nval_once () =
  let env = mk () in
  let s = add env 1 in
  ignore (Epoll.ctl_add env.ep ~fd:1 ~events:Pollmask.pollin ());
  ignore (Socket.deliver s ~bytes_len:1 ~payload:"");
  Hashtbl.remove env.sockets 1;
  let got = ref [] in
  Epoll.wait env.ep ~max_events:8 ~timeout:(Some Time.zero)
    ~k:(fun rs -> got := Ready_buffer.to_list rs);
  Engine.run env.engine;
  Alcotest.(check (list (pair int Helpers.mask))) "NVAL" [ (1, Pollmask.pollnval) ]
    (as_pairs !got)

let test_max_events_caps () =
  let env = mk () in
  for fd = 0 to 9 do
    let s = add env fd in
    ignore (Epoll.ctl_add env.ep ~fd ~events:Pollmask.pollin ());
    ignore (Socket.deliver s ~bytes_len:1 ~payload:"")
  done;
  let got = ref [] in
  Epoll.wait env.ep ~max_events:4 ~timeout:(Some Time.zero)
    ~k:(fun rs -> got := Ready_buffer.to_list rs);
  Engine.run env.engine;
  Alcotest.(check int) "capped" 4 (List.length !got);
  (* The other six are still queued. *)
  Alcotest.(check bool) "rest queued" true (Epoll.ready_count env.ep >= 6)

let prop_epoll_agrees_with_poll =
  QCheck.Test.make ~name:"epoll (level) and poll agree on readiness" ~count:150
    QCheck.(list_of_size Gen.(1 -- 15) (int_bound 3))
    (fun script ->
      let env = mk () in
      List.iteri
        (fun fd action ->
          let s = add env fd in
          ignore (Epoll.ctl_add env.ep ~fd ~events:Pollmask.pollin ());
          match action with
          | 0 -> ()
          | 1 -> ignore (Socket.deliver s ~bytes_len:1 ~payload:"")
          | 2 -> Socket.peer_closed s
          | _ -> Socket.reset s)
        script;
      let n = List.length script in
      let ev = ref [] and pl = ref [] in
      Epoll.wait env.ep ~max_events:n ~timeout:(Some Time.zero)
        ~k:(fun rs -> ev := Ready_buffer.to_list rs);
      Poll.wait ~host:env.host ~lookup:(Hashtbl.find_opt env.sockets)
        ~interests:(List.init n (fun fd -> (fd, Pollmask.pollin)))
        ~timeout:(Some Time.zero)
          ~k:(fun rs -> pl := rs);
      Engine.run env.engine;
      let norm rs = List.sort compare (as_pairs rs) in
      norm !ev = norm !pl)

let suite =
  [
    Alcotest.test_case "ctl lifecycle" `Quick test_ctl_lifecycle;
    Alcotest.test_case "ready event delivered" `Quick test_ready_event_delivered;
    Alcotest.test_case "no lost startup event" `Quick test_no_lost_startup_event;
    Alcotest.test_case "level-triggered requeues" `Quick test_level_triggered_requeues;
    Alcotest.test_case "edge-triggered fires once" `Quick test_edge_triggered_fires_once;
    Alcotest.test_case "stale ready entry dropped" `Quick test_stale_ready_entry_dropped;
    Alcotest.test_case "blocks until event" `Quick test_blocks_until_event;
    Alcotest.test_case "concurrent and reused sleepers" `Quick
      test_concurrent_and_reused_sleepers;
    Alcotest.test_case "wait cost O(ready) not O(interests)" `Quick
      test_wait_cost_independent_of_interest_size;
    Alcotest.test_case "closed fd reports NVAL" `Quick test_closed_fd_reports_nval_once;
    Alcotest.test_case "max_events caps, rest stay queued" `Quick test_max_events_caps;
    QCheck_alcotest.to_alcotest prop_epoll_agrees_with_poll;
  ]
