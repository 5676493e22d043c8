type t = {
  queue : Event_queue.t;
  root_rng : Rng.t;
  mutable clock : Time.t;
  mutable executed : int;
}

let create ?(seed = 42) () =
  { queue = Event_queue.create (); root_rng = Rng.create ~seed; clock = Time.zero; executed = 0 }

let now e = e.clock
let rng e = e.root_rng

let at e t f =
  if t < e.clock then
    invalid_arg
      (Fmt.str "Engine.at: time %a is before now %a" Time.pp t Time.pp e.clock);
  Event_queue.schedule e.queue ~at:t f

let after e d f = at e (Time.add e.clock (Stdlib.max 0 d)) f

let cancel e h = Event_queue.cancel e.queue h

let step e =
  let t = Event_queue.peek_time e.queue in
  if t < 0 then false
  else begin
    e.clock <- Stdlib.max e.clock t;
    let action = Event_queue.pop_next e.queue in
    e.executed <- e.executed + 1;
    action ();
    true
  end

let run ?until e =
  let horizon = match until with Some h -> h | None -> max_int in
  let continue () =
    let t = Event_queue.peek_time e.queue in
    t >= 0 && t <= horizon
  in
  while continue () do
    ignore (step e)
  done;
  (* With a horizon, the clock advances to it even if the last event
     fired earlier: "run until t" leaves the simulation at t. *)
  match until with
  | Some horizon -> e.clock <- Stdlib.max e.clock horizon
  | None -> ()

let events_executed e = e.executed
let pending e = Event_queue.length e.queue
