(* In-memory span recorder for the traced run.

   A span wraps one call the benchmark makes into a layer and is named
   [<layer>.<Module.function>]. Each simulated world (one rate point or
   one shard) records into its own recorder; the workload-level
   recorder is world 0. Spans are kept in
   memory and written out once, when the benchmark exits.

   Counters are read at the same boundaries as the clock: minor words
   of the calling domain (a world runs on one domain, so the delta is
   the world's own allocation) and, once the world has an engine,
   [Engine.events_executed]. With tracing off [span] only calls [f]. *)

type span = {
  id : int;
  world : int;
  parent : int;  (** id of the enclosing span; -1 for a root *)
  name : string;
  tag : string;  (** distinguishes repeated calls, e.g. the settle and load runs *)
  start : float;
  stop : float;
  minor_words : float;
  events : int;
}

type t = {
  enabled : bool;
  world : int;
  root_parent : int;  (** parent id of this recorder's outermost spans *)
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;  (** most recent first *)
  mutable engine : Sio_sim.Engine.t option;
}

(* World w's span ids are w * stride + seq, unique across recorders. *)
let stride = 1 lsl 20

let create ~enabled ~world ?(root_parent = -1) () =
  { enabled; world; root_parent; next = 0; stack = []; spans = []; engine = None }

let disabled = create ~enabled:false ~world:0 ()
let enabled t = t.enabled

let current t = match t.stack with id :: _ -> id | [] -> t.root_parent

(* The engine is held only while its world runs: a recorder outlives
   its world, and must not keep the world's memory alive. *)
let attach_engine t e = if t.enabled then t.engine <- Some e
let detach_engine t = t.engine <- None

let events t =
  match t.engine with Some e -> Sio_sim.Engine.events_executed e | None -> 0

let span ?(tag = "") t name f =
  if not t.enabled then f ()
  else begin
    let id = (t.world * stride) + t.next in
    t.next <- t.next + 1;
    let parent = current t in
    t.stack <- id :: t.stack;
    let w0 = Gc.minor_words () and e0 = events t in
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      t.stack <- List.tl t.stack;
      t.spans <-
        {
          id;
          world = t.world;
          parent;
          name;
          tag;
          start;
          stop;
          minor_words = Gc.minor_words () -. w0;
          events = events t - e0;
        }
        :: t.spans
    in
    Fun.protect ~finally:finish f
  end

let spans t = List.rev t.spans

(* Self time: a span's duration minus its children's. Every world
   runs on the calling domain, so the children of one parent run one
   after another. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s.stop -. s.start +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let c = Option.value ~default:0. (Hashtbl.find_opt children s.id) in
      (s, Float.max 0. (s.stop -. s.start -. c)))
    spans
