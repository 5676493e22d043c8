open Sio_sim

let test_schedule_pop_due () =
  let q = Event_queue.create () in
  let fired = ref [] in
  ignore (Event_queue.schedule q ~at:(Time.ms 5) (fun () -> fired := 5 :: !fired));
  ignore (Event_queue.schedule q ~at:(Time.ms 2) (fun () -> fired := 2 :: !fired));
  Alcotest.(check (option int)) "next_time" (Some (Time.ms 2)) (Event_queue.next_time q);
  (match Event_queue.pop_due q ~now:(Time.ms 3) with
  | Some action -> action ()
  | None -> Alcotest.fail "expected due event");
  Alcotest.(check (list int)) "earliest popped" [ 2 ] !fired;
  Alcotest.(check bool) "later not due" true (Event_queue.pop_due q ~now:(Time.ms 3) = None)

let test_negative_time_rejected () =
  let q = Event_queue.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Event_queue.schedule: negative time")
    (fun () -> ignore (Event_queue.schedule q ~at:(-1) (fun () -> ())))

let test_cancel_semantics () =
  let q = Event_queue.create () in
  let h1 = Event_queue.schedule q ~at:(Time.ms 1) (fun () -> ()) in
  let h2 = Event_queue.schedule q ~at:(Time.ms 2) (fun () -> ()) in
  Alcotest.(check int) "two live" 2 (Event_queue.length q);
  Event_queue.cancel q h1;
  Alcotest.(check int) "one live" 1 (Event_queue.length q);
  Alcotest.(check bool) "h1 not pending" false (Event_queue.is_pending q h1);
  Alcotest.(check bool) "h2 pending" true (Event_queue.is_pending q h2);
  (* Double cancel is a no-op; the count must not underflow. *)
  Event_queue.cancel q h1;
  Alcotest.(check int) "still one" 1 (Event_queue.length q);
  (* Cancelled head is skipped transparently. *)
  Alcotest.(check (option int)) "next skips cancelled" (Some (Time.ms 2))
    (Event_queue.next_time q)

let prop_fifo_among_equal_times =
  QCheck.Test.make ~name:"events at one instant pop in schedule order" ~count:100
    QCheck.(int_range 1 50)
    (fun n ->
      let q = Event_queue.create () in
      let fired = ref [] in
      for i = 0 to n - 1 do
        ignore (Event_queue.schedule q ~at:(Time.ms 1) (fun () -> fired := i :: !fired))
      done;
      let rec drain () =
        match Event_queue.pop_due q ~now:(Time.ms 1) with
        | Some action ->
            action ();
            drain ()
        | None -> ()
      in
      drain ();
      List.rev !fired = List.init n Fun.id)

let prop_cancel_never_fires =
  QCheck.Test.make ~name:"cancelled events never pop" ~count:200
    QCheck.(list (pair (int_bound 100) bool))
    (fun specs ->
      let q = Event_queue.create () in
      let fired = Hashtbl.create 16 in
      let handles =
        List.mapi
          (fun i (at, cancel) ->
            let h = Event_queue.schedule q ~at (fun () -> Hashtbl.replace fired i ()) in
            (h, cancel))
          specs
      in
      List.iter (fun (h, cancel) -> if cancel then Event_queue.cancel q h) handles;
      let rec drain () =
        match Event_queue.pop_due q ~now:1000 with
        | Some action ->
            action ();
            drain ()
        | None -> ()
      in
      drain ();
      List.for_all2
        (fun (_, cancelled) i -> if cancelled then not (Hashtbl.mem fired i) else Hashtbl.mem fired i)
        handles
        (List.init (List.length handles) Fun.id))

(* Regression: a fired event's handle must answer false, not true —
   the old Hashtbl scheme forgot events once they fired and could not
   tell "fired" from "still pending". *)
let test_fired_event_not_pending () =
  let q = Event_queue.create () in
  let h = Event_queue.schedule q ~at:(Time.ms 1) (fun () -> ()) in
  Alcotest.(check bool) "pending before firing" true (Event_queue.is_pending q h);
  (match Event_queue.pop_due q ~now:(Time.ms 1) with
  | Some action -> action ()
  | None -> Alcotest.fail "expected due event");
  Alcotest.(check bool) "not pending after firing" false (Event_queue.is_pending q h);
  (* Cancelling a fired event is a no-op and must not underflow. *)
  Event_queue.cancel q h;
  Alcotest.(check int) "length stays 0" 0 (Event_queue.length q)

(* Regression: slot reuse. A stale handle to a fired event must not be
   able to cancel the unrelated event that now occupies its slot. *)
let test_stale_handle_cannot_touch_reused_slot () =
  let q = Event_queue.create ~initial_capacity:1 () in
  let h1 = Event_queue.schedule q ~at:(Time.ms 1) (fun () -> ()) in
  (match Event_queue.pop_due q ~now:(Time.ms 1) with
  | Some action -> action ()
  | None -> Alcotest.fail "expected due event");
  let fired = ref false in
  let h2 = Event_queue.schedule q ~at:(Time.ms 2) (fun () -> fired := true) in
  Event_queue.cancel q h1;
  (* stale: must not hit h2's slot *)
  Alcotest.(check bool) "h2 still pending" true (Event_queue.is_pending q h2);
  Alcotest.(check bool) "h1 stale" false (Event_queue.is_pending q h1);
  Alcotest.(check int) "one live" 1 (Event_queue.length q);
  (match Event_queue.pop_due q ~now:(Time.ms 2) with
  | Some action -> action ()
  | None -> Alcotest.fail "h2 must still fire");
  Alcotest.(check bool) "h2 fired" true !fired

(* Cancelling releases the action: a value captured only by a cancelled
   event's closure is collectable before the event's time comes. The
   value and closure are built in a non-inlined helper so no stack slot
   of the test keeps them alive. *)
let[@inline never] schedule_capturing q weak =
  let captured = Bytes.make 64 'x' in
  Weak.set weak 0 (Some captured);
  Event_queue.schedule q ~at:(Time.s 10) (fun () -> ignore (Bytes.length captured))

let test_cancel_releases_capture () =
  let q = Event_queue.create () in
  let weak = Weak.create 1 in
  let h = schedule_capturing q weak in
  Gc.full_major ();
  Alcotest.(check bool) "held while pending" true (Weak.check weak 0);
  Event_queue.cancel q h;
  Gc.full_major ();
  Alcotest.(check bool) "released at cancel" false (Weak.check weak 0);
  Alcotest.(check int) "no live events" 0 (Event_queue.length q);
  Alcotest.(check bool) "queue drains" true (Event_queue.pop_due q ~now:(Time.s 10) = None)

(* Handles go stale after fire, after cancel and when their slot is
   reused. *)
let test_handle_staleness () =
  let q = Event_queue.create ~initial_capacity:1 () in
  let fire () =
    match Event_queue.pop_due q ~now:max_int with
    | Some action -> action ()
    | None -> Alcotest.fail "expected a due event"
  in
  (* Cancel after fire. *)
  let fired = ref 0 in
  let h1 = Event_queue.schedule q ~at:(Time.ms 1) (fun () -> incr fired) in
  Alcotest.(check bool) "h1 pending" true (Event_queue.is_pending q h1);
  fire ();
  Alcotest.(check bool) "h1 fired, not pending" false (Event_queue.is_pending q h1);
  Event_queue.cancel q h1;
  Alcotest.(check bool) "cancel after fire stays inert" false (Event_queue.is_pending q h1);
  Alcotest.(check int) "fired once" 1 !fired;
  (* Double cancel. *)
  let h2 = Event_queue.schedule q ~at:(Time.ms 2) (fun () -> incr fired) in
  let h3 = Event_queue.schedule q ~at:(Time.ms 3) (fun () -> incr fired) in
  Event_queue.cancel q h2;
  Alcotest.(check bool) "h2 cancelled" false (Event_queue.is_pending q h2);
  Event_queue.cancel q h2;
  Alcotest.(check bool) "h2 still cancelled" false (Event_queue.is_pending q h2);
  Alcotest.(check bool) "h3 untouched" true (Event_queue.is_pending q h3);
  Alcotest.(check int) "one live" 1 (Event_queue.length q);
  fire ();
  Alcotest.(check int) "only h3 fired" 2 !fired;
  (* An old handle after its slot was reused by a new event. *)
  let h4 = Event_queue.schedule q ~at:(Time.ms 4) (fun () -> incr fired) in
  List.iter
    (fun (name, h) ->
      Event_queue.cancel q h;
      Alcotest.(check bool) (name ^ " stale") false (Event_queue.is_pending q h))
    [ ("h1", h1); ("h2", h2); ("h3", h3) ];
  Alcotest.(check bool) "h4 survives stale cancels" true (Event_queue.is_pending q h4);
  Alcotest.(check bool) "none never pending" false (Event_queue.is_pending q Event_queue.none);
  Event_queue.cancel q Event_queue.none;
  Alcotest.(check bool) "h4 survives cancelling none" true (Event_queue.is_pending q h4);
  fire ();
  Alcotest.(check int) "h4 fired" 3 !fired;
  Alcotest.(check bool) "h4 fired, not pending" false (Event_queue.is_pending q h4)

(* Model-based property: random schedule/cancel/pop interleavings on
   the generation-stamped queue match a naive reference model (a list
   scanned for the earliest (time, seq) pending event). *)
type model_event = {
  idx : int;
  at : Time.t;
  handle : Event_queue.handle;
  mutable cancelled : bool;
  mutable fired : bool;
}

let prop_matches_reference_model =
  QCheck.Test.make ~name:"random interleavings match a reference model" ~count:300
    QCheck.(list (pair (int_bound 2) (int_bound 30)))
    (fun ops ->
      let q = Event_queue.create ~initial_capacity:1 () in
      let model = ref [] (* newest first *) in
      let now = ref 0 in
      let last_fired = ref (-1) in
      let live () = List.length (List.filter (fun e -> not (e.cancelled || e.fired)) !model) in
      let ok = ref true in
      let expect cond = if not cond then ok := false in
      List.iter
        (fun (op, arg) ->
          (match op with
          | 0 ->
              (* schedule at an arbitrary non-negative time *)
              let idx = List.length !model in
              let at = arg in
              let handle = Event_queue.schedule q ~at (fun () -> last_fired := idx) in
              model := { idx; at; handle; cancelled = false; fired = false } :: !model
          | 1 -> (
              (* cancel an arbitrary previously issued handle, live or stale *)
              match !model with
              | [] -> ()
              | evs ->
                  let e = List.nth evs (arg mod List.length evs) in
                  Event_queue.cancel q e.handle;
                  if not (e.cancelled || e.fired) then e.cancelled <- true)
          | _ -> (
              (* advance time and pop one due event *)
              now := !now + arg;
              let expected =
                List.fold_left
                  (fun best e ->
                    if e.cancelled || e.fired || e.at > !now then best
                    else
                      match best with
                      | Some b
                        when b.at < e.at || (b.at = e.at && b.idx < e.idx) ->
                          best
                      | _ -> Some e)
                  None !model
              in
              match (Event_queue.pop_due q ~now:!now, expected) with
              | None, None -> ()
              | Some action, Some e ->
                  action ();
                  expect (!last_fired = e.idx);
                  e.fired <- true
              | Some _, None | None, Some _ -> expect false));
          (* after every op the queue and the model agree everywhere *)
          expect (Event_queue.length q = live ());
          List.iter
            (fun e ->
              expect
                (Event_queue.is_pending q e.handle = not (e.cancelled || e.fired)))
            !model)
        ops;
      !ok)

(* A deep heap under heavy cancellation: 500-700 events over 16
   distinct times, then a run of random ops that mostly cancel pending
   events wherever they sit in the heap. Removing an interior node
   moves the heap's last node into the hole, and with this many equal
   and near-equal times that node often precedes the hole's parent, so
   a removal that only sifted down would leave the heap out of order;
   every pop, and the final drain, is checked against the model's
   (time, scheduling order). *)
let prop_deep_heap_cancel =
  QCheck.Test.make ~name:"cancelling interior events of a deep heap keeps (time, seq) order"
    ~count:60
    QCheck.(
      pair
        (list_of_size Gen.(int_range 500 700) (int_bound 15))
        (list_of_size Gen.(int_range 300 600) (int_bound 1_000_000)))
    (fun (times, ops) ->
      let q = Event_queue.create ~initial_capacity:1 () in
      let cap = List.length times + List.length ops in
      let at = Array.make cap 0 in
      let handles = Array.make cap Event_queue.none in
      let pending = Array.make cap false in
      let scheduled = ref 0 in
      let last_fired = ref (-1) in
      let schedule t =
        let i = !scheduled in
        at.(i) <- t;
        handles.(i) <- Event_queue.schedule q ~at:t (fun () -> last_fired := i);
        pending.(i) <- true;
        incr scheduled
      in
      (* The model's next event: least (time, scheduling index). *)
      let earliest () =
        let best = ref (-1) in
        for i = 0 to !scheduled - 1 do
          if pending.(i) && (!best < 0 || at.(i) < at.(!best)) then best := i
        done;
        !best
      in
      let ok = ref true in
      let expect cond = if not cond then ok := false in
      let pop () =
        let e = earliest () in
        match Event_queue.pop_due q ~now:max_int with
        | Some action ->
            action ();
            expect (!last_fired = e);
            if e >= 0 then pending.(e) <- false
        | None -> expect (e < 0)
      in
      List.iter schedule times;
      let now = ref 0 in
      List.iter
        (fun v ->
          match v mod 8 with
          | 0 ->
              let e = earliest () in
              if e >= 0 then now := at.(e);
              pop ()
          | 1 -> schedule (!now + (v / 8 mod 16))
          | _ ->
              (* Cancel the first pending event at or after a random
                 index: interior nodes as often as leaves. *)
              let n = !scheduled in
              let start = v / 8 mod n in
              let rec find k =
                if k < n then
                  let i = (start + k) mod n in
                  if pending.(i) then i else find (k + 1)
                else -1
              in
              let i = find 0 in
              if i >= 0 then begin
                Event_queue.cancel q handles.(i);
                pending.(i) <- false
              end)
        ops;
      let live = Array.fold_left (fun n p -> if p then n + 1 else n) 0 pending in
      expect (Event_queue.length q = live);
      for i = 0 to !scheduled - 1 do
        expect (Event_queue.is_pending q handles.(i) = pending.(i))
      done;
      for _ = 1 to live do
        pop ()
      done;
      expect (Event_queue.is_empty q);
      !ok)

(* Scheduling a pre-built closure, cancelling, peeking and popping
   allocate nothing once the queue's arrays have grown to the working
   population. *)
let test_steady_state_allocates_nothing () =
  let q = Event_queue.create () in
  let action = Sys.opaque_identity (fun () -> ()) in
  for i = 1 to 1000 do
    ignore (Event_queue.schedule q ~at:(i mod 97) action)
  done;
  let t = ref 100 in
  let round () =
    incr t;
    let h = Event_queue.schedule q ~at:(!t + 50) action in
    ignore (Sys.opaque_identity (Event_queue.schedule q ~at:!t action));
    Event_queue.cancel q h;
    ignore (Sys.opaque_identity (Event_queue.peek_time q));
    let a = Event_queue.pop_next q in
    a ()
  in
  ignore (Helpers.minor_words_of 1000 round);
  let n = 10_000 in
  let words = Helpers.minor_words_of n round in
  if words > 16. then
    Alcotest.failf "schedule+cancel+peek_time+pop_next allocated %.0f minor words over %d rounds"
      words n;
  Alcotest.(check int) "population unchanged" 1000 (Event_queue.length q)

let suite =
  [
    Alcotest.test_case "schedule and pop_due" `Quick test_schedule_pop_due;
    Alcotest.test_case "negative time rejected" `Quick test_negative_time_rejected;
    Alcotest.test_case "cancel semantics" `Quick test_cancel_semantics;
    Alcotest.test_case "fired events are not pending" `Quick test_fired_event_not_pending;
    Alcotest.test_case "stale handles cannot touch reused slots" `Quick
      test_stale_handle_cannot_touch_reused_slot;
    Alcotest.test_case "cancel releases the captured closure" `Quick
      test_cancel_releases_capture;
    Alcotest.test_case "handles go stale after fire, cancel and reuse" `Quick
      test_handle_staleness;
    Alcotest.test_case "steady-state operations allocate nothing" `Quick
      test_steady_state_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_fifo_among_equal_times;
    QCheck_alcotest.to_alcotest prop_cancel_never_fires;
    QCheck_alcotest.to_alcotest prop_matches_reference_model;
    QCheck_alcotest.to_alcotest prop_deep_heap_cancel;
  ]
