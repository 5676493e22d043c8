(* The incremental ready sets (Devpoll's active set, Poll.Pset,
   Select.Sset) under churn: after any interleaving of socket
   mutations, closes, POLLREMOVEs, and scans, a set maintained
   incrementally must report the same readiness — and certify the same
   fds idle — as one rebuilt from scratch over the final state. Plus
   the analytic-charging regression: the batched idle charge and its
   counter updates are identical to the per-fd loop they replaced
   (DESIGN.md section 5's bulk-charging rule). *)

open Sio_sim
open Sio_kernel

type world = {
  engine : Engine.t;
  host : Host.t;
  sockets : (int, Socket.t) Hashtbl.t;
  interests : (int, Pollmask.t) Hashtbl.t;  (* model of the interest set *)
}

let mk_world () =
  let engine = Helpers.mk_engine () in
  let host = Helpers.mk_host engine in
  { engine; host; sockets = Hashtbl.create 8; interests = Hashtbl.create 8 }

let fd_pool = 8

(* Odd fds also watch for writability, so the write legs of select and
   poll see traffic too. *)
let interest_mask fd =
  if fd mod 2 = 0 then Pollmask.pollin else Pollmask.union Pollmask.pollin Pollmask.pollout

(* Decode one scripted op: socket churn is shared across backends,
   interest edits and scans are the backend's. *)
let apply w ~add ~remove ~scan x =
  let fd = x mod fd_pool and action = x / fd_pool in
  let with_sock f =
    match Hashtbl.find_opt w.sockets fd with Some s -> f s | None -> ()
  in
  match action with
  | 0 ->
      (* Fd reuse always passes through close: an open descriptor's
         socket is never replaced silently (close posts POLLNVAL, the
         edge the ready sets rely on to spot the rebind). *)
      with_sock Socket.close;
      Hashtbl.replace w.sockets fd (Socket.create_established ~host:w.host)
  | 1 ->
      with_sock (fun s ->
          Socket.close s;
          Hashtbl.remove w.sockets fd)
  | 2 -> with_sock (fun s -> ignore (Socket.deliver s ~bytes_len:1 ~payload:""))
  | 3 -> with_sock (fun s -> ignore (Socket.read_all s))
  | 4 -> with_sock Socket.peer_closed
  | 5 -> with_sock (fun s -> Socket.set_hints_supported s (not (Socket.hints_supported s)))
  | 6 ->
      Hashtbl.replace w.interests fd (interest_mask fd);
      add fd
  | 7 ->
      Hashtbl.remove w.interests fd;
      remove fd
  | _ -> scan ()

let script_gen = QCheck.(list_of_size Gen.(5 -- 60) (int_bound ((fd_pool * 9) - 1)))

let model_interests w =
  List.sort compare (Hashtbl.fold (fun fd ev acc -> (fd, ev) :: acc) w.interests [])

let sorted_pairs rs = List.sort compare (List.map (fun r -> (r.Poll.fd, r.Poll.revents)) rs)

let dp_scan w dev =
  let got = ref [] in
  Devpoll.dp_poll dev ~max_results:64 ~timeout:(Some Time.zero)
    ~k:(fun rs -> got := Ready_buffer.to_list rs);
  Engine.run w.engine;
  sorted_pairs !got

let prop_devpoll_churn =
  QCheck.Test.make ~name:"devpoll active set equals rebuilt set after churn" ~count:300
    script_gen
    (fun script ->
      let w = mk_world () in
      let lookup = Hashtbl.find_opt w.sockets in
      let dev = Devpoll.create ~host:w.host ~lookup in
      List.iter
        (apply w
           ~add:(fun fd -> Devpoll.write dev [ (fd, interest_mask fd) ])
           ~remove:(fun fd -> Devpoll.write dev [ (fd, Pollmask.pollremove) ])
           ~scan:(fun () -> ignore (dp_scan w dev)))
        script;
      let fresh = Devpoll.create ~host:w.host ~lookup in
      Devpoll.write fresh (model_interests w);
      dp_scan w dev = dp_scan w fresh
      && Devpoll.active_fds dev = Devpoll.active_fds fresh)

(* Charged nanoseconds and Host counters spent by [f]. *)
let snap (h : Host.t) =
  let c = h.Host.counters in
  (c.Host.syscalls, c.Host.driver_polls, c.Host.hint_skips, c.Host.wait_queue_wakes)

let delta h f =
  let busy0 = Cpu.total_busy h.Host.cpu and s0, d0, k0, w0 = snap h in
  f ();
  let busy1 = Cpu.total_busy h.Host.cpu and s1, d1, k1, w1 = snap h in
  (Time.sub busy1 busy0, (s1 - s0, d1 - d0, k1 - k0, w1 - w0))

(* The persistent poll set caches each entry's last probe, so its
   churn script also consumes readiness between scans — reads that
   drain, accepts that empty a listener, sends that fill the buffer,
   closes and fd reuse — and every scan is checked against a stateless
   poll() over the same interests in the same (insertion) order:
   identical results in identical order, identical charged
   nanoseconds, identical counters. *)
type pset_world = {
  pw : world;
  set : Poll.Pset.pset;
  mutable order : (int * Pollmask.t) list; (* the interest list, insertion order *)
}

let pset_set pw fd ev =
  Poll.Pset.set pw.set fd ev;
  if List.mem_assoc fd pw.order then
    pw.order <- List.map (fun (fd', ev') -> if fd' = fd then (fd, ev) else (fd', ev')) pw.order
  else pw.order <- pw.order @ [ (fd, ev) ]

let pset_remove pw fd =
  Poll.Pset.remove pw.set fd;
  pw.order <- List.remove_assoc fd pw.order

let pset_wait pw =
  let got = ref [] in
  let charge =
    delta pw.pw.host (fun () ->
        Poll.Pset.wait_set pw.set ~timeout:(Some Time.zero)
          ~k:(fun rs -> got := Ready_buffer.to_list rs);
        Engine.run pw.pw.engine)
  in
  (!got, charge)

let stateless_wait pw =
  let got = ref [] in
  let charge =
    delta pw.pw.host (fun () ->
        Poll.wait ~host:pw.pw.host ~lookup:(Hashtbl.find_opt pw.pw.sockets)
          ~interests:pw.order ~timeout:(Some Time.zero) ~k:(fun rs -> got := rs);
        Engine.run pw.pw.engine)
  in
  (!got, charge)

let pairs rs = List.map (fun r -> (r.Poll.fd, r.Poll.revents)) rs

(* Replace whatever socket holds [fd] (closing it first, which posts
   the POLLNVAL edge the set relies on to spot the reuse). *)
let install w fd sock =
  (match Hashtbl.find_opt w.sockets fd with Some s -> Socket.close s | None -> ());
  Hashtbl.replace w.sockets fd sock

let pset_op pw x =
  let w = pw.pw in
  let fd = x mod fd_pool and action = x / fd_pool in
  let with_sock f = match Hashtbl.find_opt w.sockets fd with Some s -> f s | None -> () in
  match action with
  | 0 -> install w fd (Socket.create_established ~host:w.host)
  | 1 -> install w fd (Socket.create_listening ~host:w.host ~backlog:2)
  | 2 ->
      with_sock Socket.close;
      Hashtbl.remove w.sockets fd
  | 3 -> with_sock (fun s -> ignore (Socket.deliver s ~bytes_len:1 ~payload:"x"))
  | 4 -> with_sock (fun s -> ignore (Socket.read_all s))
  | 5 -> with_sock (fun s -> ignore (Socket.enqueue_accept s (Socket.create_established ~host:w.host)))
  | 6 -> with_sock (fun s -> ignore (Socket.accept_pop s))
  | 7 -> with_sock (fun s -> ignore (Socket.write_reserve s 65_536))
  | 8 -> with_sock (fun s -> Socket.release_send_space s 65_536)
  | 9 -> with_sock Socket.peer_closed
  | 10 -> with_sock Socket.reset
  | 11 -> with_sock (fun s -> Socket.set_hints_supported s (not (Socket.hints_supported s)))
  | 12 -> pset_set pw fd (interest_mask fd)
  | 13 -> pset_set pw fd Pollmask.pollout
  | 14 -> pset_remove pw fd
  | _ -> ()

let pset_script_gen = QCheck.(list_of_size Gen.(5 -- 80) (int_bound ((fd_pool * 17) - 1)))

let prop_pset_churn =
  QCheck.Test.make ~name:"poll pset equals stateless poll() at every scan" ~count:300
    pset_script_gen
    (fun script ->
      let w = mk_world () in
      (* Costed, so equal charges mean equal per-probe work. *)
      let w = { w with host = Host.create ~engine:w.engine () } in
      let lookup = Hashtbl.find_opt w.sockets in
      let pw = { pw = w; set = Poll.Pset.create ~host:w.host ~lookup (); order = [] } in
      let agree () =
        let rs, charge = pset_wait pw in
        let rs', charge' = stateless_wait pw in
        pairs rs = pairs rs' && charge = charge'
      in
      List.for_all (fun x -> if x / fd_pool >= 15 then agree () else (pset_op pw x; true)) script
      && agree ()
      &&
      let fresh = Poll.Pset.create ~host:w.host ~lookup () in
      List.iter (fun (fd, ev) -> Poll.Pset.set fresh fd ev) pw.order;
      let rs, _ = pset_wait { pw with set = fresh } in
      pairs rs = pairs (fst (pset_wait pw))
      && Poll.Pset.active_fds pw.set = Poll.Pset.active_fds fresh)

let set_elements s =
  let acc = ref [] in
  Fd_set.iter s (fun fd -> acc := fd :: !acc);
  List.sort compare !acc

let select_triple (r : Select.result) =
  (set_elements r.Select.readable, set_elements r.Select.writable, set_elements r.Select.except)

let sset_scan w set =
  let got = ref None in
  Select.Sset.wait_sset set ~timeout:(Some Time.zero) ~k:(fun r -> got := Some r);
  Engine.run w.engine;
  match !got with Some r -> select_triple r | None -> Alcotest.fail "wait_sset never returned"

let prop_sset_churn =
  QCheck.Test.make ~name:"select sset equals stateless select() after churn" ~count:300
    script_gen
    (fun script ->
      let w = mk_world () in
      let lookup = Hashtbl.find_opt w.sockets in
      let set = Select.Sset.create ~host:w.host ~lookup () in
      List.iter
        (apply w
           ~add:(fun fd -> Select.Sset.add set fd (interest_mask fd))
           ~remove:(fun fd -> Select.Sset.remove set fd)
           ~scan:(fun () -> ignore (sset_scan w set)))
        script;
      let read = Fd_set.create () and write = Fd_set.create () in
      List.iter
        (fun (fd, ev) ->
          Fd_set.set read fd;
          if not (Pollmask.is_empty (Pollmask.inter ev Pollmask.pollout)) then
            Fd_set.set write fd)
        (model_interests w);
      let stateless = ref None in
      Select.select ~host:w.host ~lookup ~read ~write ~except:(Fd_set.copy read)
        ~timeout:(Some Time.zero) ~k:(fun r -> stateless := Some r);
      Engine.run w.engine;
      let fresh = Select.Sset.create ~host:w.host ~lookup () in
      List.iter (fun (fd, ev) -> Select.Sset.add fresh fd ev) (model_interests w);
      (match !stateless with
      | Some r -> sset_scan w set = select_triple r
      | None -> false)
      && (ignore (sset_scan w fresh);
          Select.Sset.active_fds set = Select.Sset.active_fds fresh))

(* --- Analytic-charging regression ------------------------------------

   Pre-PR, every scan walked the full interest list and charged per
   fd. The batched idle charge must be indistinguishable from that
   loop in both charged nanoseconds and Host counters, at every load
   the figures exercise. The stateless Poll.wait/Select.select paths
   still ARE the per-fd loop, so they serve as the pre-PR oracle. *)

let loads = [ 1; 251; 501 ]

let pp_charge ppf (t, (s, d, k, w)) =
  Fmt.pf ppf "%s syscalls=%d driver_polls=%d hint_skips=%d wakes=%d" (Time.to_string t) s d
    k w

let charge = Alcotest.testable pp_charge ( = )

let mk_loaded n =
  let engine = Helpers.mk_engine () in
  let host = Host.create ~engine () in
  let sockets = Hashtbl.create (Stdlib.max 1 n) in
  for fd = 0 to n - 1 do
    Hashtbl.replace sockets fd (Socket.create_established ~host)
  done;
  (engine, host, sockets)

let test_pset_charge_matches_poll () =
  List.iter
    (fun n ->
      let engine, host, sockets = mk_loaded n in
      let lookup = Hashtbl.find_opt sockets in
      let interests = List.init n (fun fd -> (fd, Pollmask.pollin)) in
      let stateless () =
        Poll.wait ~host ~lookup ~interests ~timeout:(Some Time.zero) ~k:(fun _ -> ());
        Engine.run engine
      in
      let set = Poll.Pset.create ~host ~lookup () in
      List.iter (fun (fd, ev) -> Poll.Pset.set set fd ev) interests;
      let set_scan () =
        Poll.Pset.wait_set set ~timeout:(Some Time.zero) ~k:(fun _ -> ());
        Engine.run engine
      in
      let oracle = delta host stateless in
      Alcotest.check charge
        (Printf.sprintf "first pset scan, %d fds" n)
        oracle (delta host set_scan);
      (* Steady state: every fd idle-certified, charged via the batch. *)
      Alcotest.check charge
        (Printf.sprintf "steady pset scan, %d idle fds" n)
        oracle (delta host set_scan))
    loads

let test_sset_charge_matches_select () =
  List.iter
    (fun n ->
      let engine, host, sockets = mk_loaded n in
      let lookup = Hashtbl.find_opt sockets in
      let read = Fd_set.create () in
      for fd = 0 to n - 1 do
        Fd_set.set read fd
      done;
      let stateless () =
        Select.select ~host ~lookup ~read ~write:(Fd_set.create ())
          ~except:(Fd_set.copy read) ~timeout:(Some Time.zero) ~k:(fun _ -> ());
        Engine.run engine
      in
      let set = Select.Sset.create ~host ~lookup () in
      for fd = 0 to n - 1 do
        Select.Sset.add set fd Pollmask.pollin
      done;
      let set_scan () =
        Select.Sset.wait_sset set ~timeout:(Some Time.zero) ~k:(fun _ -> ());
        Engine.run engine
      in
      let oracle = delta host stateless in
      Alcotest.check charge
        (Printf.sprintf "first sset scan, %d fds" n)
        oracle (delta host set_scan);
      Alcotest.check charge
        (Printf.sprintf "steady sset scan, %d idle fds" n)
        oracle (delta host set_scan))
    loads

(* Devpoll has no surviving stateless twin, but its pre-PR steady
   state is a closed form: per entry one interest-hash op and one hint
   check, one hint_skip counted, no driver poll. The all-idle batch
   must charge exactly that on top of the empty-set call overhead. *)
let test_devpoll_steady_charge_formula () =
  let scan_of engine dev () =
    Devpoll.dp_poll dev ~max_results:64 ~timeout:(Some Time.zero) ~k:(fun _ -> ());
    Engine.run engine
  in
  let overhead, _ =
    let engine, host, _ = mk_loaded 0 in
    let dev = Devpoll.create ~host ~lookup:(fun _ -> None) in
    delta host (scan_of engine dev)
  in
  List.iter
    (fun n ->
      let engine, host, sockets = mk_loaded n in
      let dev = Devpoll.create ~host ~lookup:(Hashtbl.find_opt sockets) in
      Devpoll.write dev (List.init n (fun fd -> (fd, Pollmask.pollin)));
      let scan = scan_of engine dev in
      ignore (delta host scan);
      (* first scan consults every driver *)
      let costs = host.Host.costs in
      let per_entry =
        Time.add costs.Cost_model.interest_hash_op costs.Cost_model.hint_check
      in
      let expected = (Time.add overhead (Time.mul per_entry n), (1, 0, n, 0)) in
      Alcotest.check charge
        (Printf.sprintf "steady DP_POLL scan, %d idle interests" n)
        expected (delta host scan);
      Alcotest.check charge
        (Printf.sprintf "steady DP_POLL scan again, %d idle interests" n)
        expected (delta host scan))
    loads

(* A wait issued from inside a continuation (hybrid's switch back to
   signals does this) gets a buffer of its own: the batch the outer
   continuation is reading keeps its contents while the nested wait
   scans and reports. *)
let test_nested_wait_keeps_outer_batch () =
  let devpoll proc =
    match Sio_httpd.Backend.devpoll proc with
    | Ok b -> b
    | Error `Emfile -> Alcotest.fail "devpoll open"
  in
  List.iter
    (fun (name, mk) ->
      let engine = Helpers.mk_engine () in
      let host = Host.create ~engine () in
      let proc = Process.create ~host ~fd_limit:64 ~name:"server" () in
      let backend = mk proc in
      let socks =
        List.init 4 (fun _ ->
            let s = Socket.create_established ~host in
            match Process.install_socket proc s with
            | Ok fd -> (fd, s)
            | Error `Emfile -> Alcotest.fail "install")
      in
      List.iter
        (fun (fd, s) ->
          ignore (Socket.deliver s ~bytes_len:1 ~payload:"x");
          Sio_httpd.Backend.add backend fd Pollmask.pollin)
        socks;
      let fds rs = List.sort compare (List.map (fun r -> r.Poll.fd) (Ready_buffer.to_list rs)) in
      let wait k = Sio_httpd.Backend.wait backend ~timeout:(Some Time.zero) ~k in
      let before = ref [] and after = ref [] and inner = ref [] in
      wait (fun outer ->
          before := fds outer;
          List.iteri (fun i (_, s) -> if i < 2 then ignore (Socket.read_all s)) socks;
          wait (fun rs -> inner := fds rs);
          after := fds outer);
      Engine.run engine;
      let all = List.map fst socks in
      Alcotest.(check (list int)) (name ^ ": outer batch") all !before;
      Alcotest.(check (list int)) (name ^ ": outer batch after nested wait") all !after;
      Alcotest.(check (list int)) (name ^ ": nested batch") (List.filteri (fun i _ -> i >= 2) all)
        !inner)
    [
      ("poll", Sio_httpd.Backend.poll);
      ("select", Sio_httpd.Backend.select);
      ("epoll", fun proc -> Sio_httpd.Backend.epoll proc);
      ("devpoll", devpoll);
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_devpoll_churn;
    QCheck_alcotest.to_alcotest prop_pset_churn;
    QCheck_alcotest.to_alcotest prop_sset_churn;
    Alcotest.test_case "pset charge = poll() charge at {1,251,501}" `Quick
      test_pset_charge_matches_poll;
    Alcotest.test_case "sset charge = select() charge at {1,251,501}" `Quick
      test_sset_charge_matches_select;
    Alcotest.test_case "devpoll steady charge formula at {1,251,501}" `Quick
      test_devpoll_steady_charge_formula;
    Alcotest.test_case "nested wait keeps the outer batch" `Quick
      test_nested_wait_keeps_outer_batch;
  ]
