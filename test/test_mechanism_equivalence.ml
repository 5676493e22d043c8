(* The strongest invariant in the repository: under ANY interleaving of
   socket mutations and scans, the four notification mechanisms —
   select, poll, /dev/poll (with its hint cache) and epoll (with its
   ready list) — report exactly the same readiness at every
   observation point. This is what makes the servers' backends
   interchangeable, and it exercises the devpoll cache-revalidation
   rule and the epoll ready-list bookkeeping under adversarial
   schedules that the unit tests cannot reach. *)

open Sio_sim
open Sio_kernel

type op =
  | Deliver of int
  | Drain of int  (** read everything buffered *)
  | Peer_close of int
  | Reset of int
  | Observe  (** compare all four mechanisms *)

let op_gen nfds =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun fd -> Deliver fd) (int_bound (nfds - 1)));
        (3, map (fun fd -> Drain fd) (int_bound (nfds - 1)));
        (1, map (fun fd -> Peer_close fd) (int_bound (nfds - 1)));
        (1, map (fun fd -> Reset fd) (int_bound (nfds - 1)));
        (3, return Observe);
      ])

let pp_op = function
  | Deliver fd -> Printf.sprintf "deliver %d" fd
  | Drain fd -> Printf.sprintf "drain %d" fd
  | Peer_close fd -> Printf.sprintf "peer_close %d" fd
  | Reset fd -> Printf.sprintf "reset %d" fd
  | Observe -> "observe"

let arbitrary_script nfds =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (1 -- 40) (op_gen nfds))

(* Readable-according-to-poll for one fd, from a poll result list. *)
let readable_in results fd =
  List.exists
    (fun r ->
      r.Poll.fd = fd
      && Pollmask.intersects r.Poll.revents
           (Pollmask.union Pollmask.readable
              (Pollmask.union Pollmask.pollhup Pollmask.pollerr)))
    results

let run_script nfds ops =
  let engine = Helpers.mk_engine () in
  let host = Helpers.mk_host engine in
  let sockets = Hashtbl.create nfds in
  for fd = 0 to nfds - 1 do
    Hashtbl.replace sockets fd (Socket.create_established ~host)
  done;
  let lookup = Hashtbl.find_opt sockets in
  let interests = List.init nfds (fun fd -> (fd, Pollmask.pollin)) in
  let dev = Devpoll.create ~host ~lookup in
  Devpoll.write dev interests;
  let ep = Epoll.create ~host ~lookup in
  List.iter (fun (fd, events) -> ignore (Epoll.ctl_add ep ~fd ~events ())) interests;
  let read_set =
    let s = Fd_set.create () in
    List.iter (fun (fd, _) -> Fd_set.set s fd) interests;
    s
  in
  let none = Fd_set.create () in
  let ok = ref true in
  let observe () =
    let poll_r = ref [] and dev_r = ref [] and ep_r = ref [] and sel_r = ref None in
    Poll.wait ~host ~lookup ~interests ~timeout:(Some Time.zero) ~k:(fun rs ->
        poll_r := rs);
    Devpoll.dp_poll dev ~max_results:nfds ~timeout:(Some Time.zero) ~k:(fun rs ->
        dev_r := Ready_buffer.to_list rs);
    Epoll.wait ep ~max_events:nfds ~timeout:(Some Time.zero)
      ~k:(fun rs -> ep_r := Ready_buffer.to_list rs);
    Select.select ~host ~lookup ~read:read_set ~write:none ~except:none
      ~timeout:(Some Time.zero) ~k:(fun r -> sel_r := Some r);
    Engine.run engine;
    let sel = match !sel_r with Some r -> r | None -> assert false in
    for fd = 0 to nfds - 1 do
      let p = readable_in !poll_r fd in
      let d = readable_in !dev_r fd in
      let e = readable_in !ep_r fd in
      let s =
        Fd_set.mem sel.Select.readable fd || Fd_set.mem sel.Select.except fd
      in
      if not (p = d && d = e && e = s) then ok := false
    done
  in
  List.iter
    (fun op ->
      (match op with
      | Deliver fd -> (
          match lookup fd with
          | Some s -> ignore (Socket.deliver s ~bytes_len:8 ~payload:"")
          | None -> ())
      | Drain fd -> (
          match lookup fd with Some s -> ignore (Socket.read_all s) | None -> ())
      | Peer_close fd -> (
          match lookup fd with Some s -> Socket.peer_closed s | None -> ())
      | Reset fd -> (
          match lookup fd with Some s -> Socket.reset s | None -> ())
      | Observe -> observe ());
      Engine.run engine)
    ops;
  observe ();
  !ok

let prop_four_mechanisms_agree =
  QCheck.Test.make ~name:"select/poll/devpoll/epoll agree under any schedule"
    ~count:200 (arbitrary_script 6) (run_script 6)

let prop_four_mechanisms_agree_wide =
  QCheck.Test.make ~name:"agreement with a wider descriptor set" ~count:60
    (arbitrary_script 24) (run_script 24)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_four_mechanisms_agree;
    QCheck_alcotest.to_alcotest prop_four_mechanisms_agree_wide;
  ]
