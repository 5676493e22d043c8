open Sio_sim

type 'call t = {
  engine : Engine.t;
  call : 'call;
  mutable busy : bool;
  mutable timeout : Time.t;
  mutable timer : Event_queue.handle;
  mutable waiter : Socket.waiter;
  mutable expire : unit -> unit;
}

type 'call pool = {
  engine : Engine.t;
  call : unit -> 'call;
  on_wake : 'call t -> unit;
  on_expire : 'call t -> unit;
  mutable spare : 'call t option;
}

let pool ~engine ~call ~on_wake ~on_expire = { engine; call; on_wake; on_expire; spare = None }

let make (p : _ pool) =
  let sl =
    {
      engine = p.engine;
      call = p.call ();
      busy = false;
      timeout = -1;
      timer = Event_queue.none;
      waiter = { Socket.wake = ignore };
      expire = ignore;
    }
  in
  sl.waiter <- { Socket.wake = (fun _ -> p.on_wake sl) };
  sl.expire <- (fun () -> p.on_expire sl);
  sl

let acquire (p : _ pool) ~timeout =
  let sl =
    match p.spare with
    | Some sl when not sl.busy -> sl
    | Some _ -> make p
    | None ->
        let sl = make p in
        p.spare <- Some sl;
        sl
  in
  sl.busy <- true;
  sl.timeout <- (match timeout with Some x -> x | None -> -1);
  sl

let arm (sl : _ t) = if sl.timeout >= 0 then sl.timer <- Engine.after sl.engine sl.timeout sl.expire
let disarm (sl : _ t) = Engine.cancel sl.engine sl.timer
let release (sl : _ t) = sl.busy <- false
