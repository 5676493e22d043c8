open Sio_sim
open Sio_kernel

type backend_kind =
  | Select
  | Poll
  | Devpoll of { use_mmap : bool; max_events : int }
  | Epoll of { max_events : int }
  | Rt_signals of { signo : int; batch : int }

let default_devpoll = Devpoll { use_mmap = true; max_events = 64 }

type watch = { events : Pollmask.t; callback : Pollmask.t -> unit }

type notifier =
  | Via_backend of Sio_httpd.Backend.t
  | Via_signals of { signo : int; batch : int }

type t = {
  proc : Process.t;
  notifier : notifier;
  watches : watch Fd_map.t;
  mutable running : bool;
  mutable stopped : bool;
  mutable overflow_recoveries : int;
  mutable periodics : Event_queue.handle list;
}

let create ~proc ~backend =
  let notifier =
    match backend with
    | Select -> Ok (Via_backend (Sio_httpd.Backend.select proc))
    | Poll -> Ok (Via_backend (Sio_httpd.Backend.poll proc))
    | Epoll { max_events } -> Ok (Via_backend (Sio_httpd.Backend.epoll ~max_events proc))
    | Devpoll { use_mmap; max_events } -> (
        match Sio_httpd.Backend.devpoll ~use_mmap ~max_events proc with
        | Ok b -> Ok (Via_backend b)
        | Error `Emfile -> Error `Emfile)
    | Rt_signals { signo; batch } ->
        if signo < Rt_signal.sigrtmin then
          invalid_arg "Event_loop.create: signo below SIGRTMIN"
        else if batch <= 0 then invalid_arg "Event_loop.create: batch must be positive"
        else Ok (Via_signals { signo; batch })
  in
  match notifier with
  | Error `Emfile -> Error `Emfile
  | Ok notifier ->
      Ok
        {
          proc;
          notifier;
          watches = Fd_map.create ~initial_capacity:64 ();
          running = false;
          stopped = false;
          overflow_recoveries = 0;
          periodics = [];
        }

let backend_name t =
  match t.notifier with
  | Via_backend b -> Sio_httpd.Backend.name b
  | Via_signals { batch; _ } -> if batch > 1 then "rtsig-batched" else "rtsig"

let watch t ~fd ~events callback =
  Fd_map.set t.watches fd { events; callback };
  match t.notifier with
  | Via_backend b -> Sio_httpd.Backend.add b fd events
  | Via_signals { signo; _ } -> ignore (Kernel.fcntl_setsig t.proc fd ~signo)

let unwatch t fd =
  if Fd_map.remove t.watches fd then begin
    match t.notifier with
    | Via_backend b -> Sio_httpd.Backend.remove b fd
    | Via_signals _ -> ignore (Kernel.fcntl_clearsig t.proc fd)
  end

let watched_count t = Fd_map.length t.watches

let engine t = (Process.host t.proc).Host.engine

let add_timer t ~after f = Engine.after (engine t) after f

let add_periodic t ~every f =
  if every <= 0 then invalid_arg "Event_loop.add_periodic: period must be positive";
  let rec arm () =
    let h =
      Engine.after (engine t) every (fun () ->
          if not t.stopped then begin
            f ();
            arm ()
          end)
    in
    t.periodics <- h :: t.periodics
  in
  arm ()

let dispatch t fd mask =
  match Fd_map.find t.watches fd with
  | Some w -> w.callback mask
  | None -> () (* stale event for an unwatched descriptor *)

(* Recovery poll over the entire watch set: the paper's prescription
   after an RT-signal queue overflow. Fd_map iterates in ascending fd
   order, so the poll (and therefore dispatch) order is a function of
   the watch set alone — no snapshot-and-sort needed. *)
let recovery_poll t ~k =
  t.overflow_recoveries <- t.overflow_recoveries + 1;
  let interests =
    List.rev (Fd_map.fold t.watches ~init:[] ~f:(fun acc fd w -> (fd, w.events) :: acc))
  in
  Kernel.poll t.proc ~interests ~timeout:(Some Time.zero) ~k:(fun results ->
      List.iter (fun r -> dispatch t r.Sio_kernel.Poll.fd r.Sio_kernel.Poll.revents) results;
      k ())

let rec loop t =
  if not t.stopped then begin
    match t.notifier with
    | Via_backend b ->
        Sio_httpd.Backend.wait b ~timeout:(Some (Time.s 10)) ~k:(fun events ->
            if not t.stopped then begin
              Ready_buffer.iter events (fun ev ->
                  dispatch t ev.Sio_kernel.Poll.fd ev.Sio_kernel.Poll.revents);
              Kernel.yield t.proc (fun () -> loop t)
            end)
    | Via_signals { batch; _ } ->
        Kernel.sigtimedwait4 t.proc ~max:batch ~timeout:(Some (Time.s 10))
          ~k:(fun deliveries ->
            if not t.stopped then begin
              let overflowed = ref false in
              List.iter
                (function
                  | Rt_signal.Signal { fd; band; _ } -> dispatch t fd band
                  | Rt_signal.Overflow -> overflowed := true)
                deliveries;
              if !overflowed then begin
                ignore (Kernel.flush_signals t.proc);
                recovery_poll t ~k:(fun () -> Kernel.yield t.proc (fun () -> loop t))
              end
              else Kernel.yield t.proc (fun () -> loop t)
            end)
  end

let run t =
  if t.running then invalid_arg "Event_loop.run: already running";
  t.running <- true;
  loop t

let stop t =
  t.stopped <- true;
  List.iter (fun h -> Engine.cancel (engine t) h) t.periodics;
  t.periodics <- []

let overflow_recoveries t = t.overflow_recoveries
