(* One simulated world, built from the layers' public functions in the
   order [Experiment.run] uses:

     Engine.create -> Host.create -> Network.create -> Process.create
     -> Fs -> Backend.* / server start -> Inactive.start
     -> Engine.run ~until:settle -> Httperf.start
     -> Engine.run ~until:horizon -> Httperf.metrics

   Wiring the world here rather than calling [Experiment.run] gives the
   benchmark its phase boundaries (set-up, settle, load, metrics) and
   [Engine.events_executed] at each, without changing the library. The
   drift-guard test holds this file to [Experiment.run] bit for bit: any
   reordering of the RNG splits or of construction shows there. *)

open Sio_sim
open Sio_kernel
open Sio_httpd
open Sio_loadgen

type result = {
  metrics : Metrics.t;
  stats : Server_stats.t;
  counters : Host.counters;
  cpu_busy : Time.t;  (** [Cpu.total_busy] at the end of the run *)
  cpu_utilization : float;
  inactive_established : int;
  inactive_reopens : int;
  final_mode : string;
  mem_peak : int;  (** modeled kernel bytes, high-water *)
  arena_high_water : int;
  events_settle : int;  (** events executed before the load started *)
  counters_settle : Host.counters;  (** host counters when the load started *)
  events : int;  (** events executed over the whole run *)
  pending_at_load : int;
  bytes_to_client : int;
  link_utilization : float;
  rate_series : float list;  (** per-interval reply rates (cluster merge) *)
  (* Host seconds per phase; not part of the simulated digest. *)
  setup_s : float;
  host_create_s : float;
  server_start_s : float;
  inactive_start_s : float;
  settle_s : float;
  load_s : float;
  metrics_s : float;
  wall_s : float;
}

type server = {
  listener : Socket.t;
  stats : Server_stats.t;
  stop : unit -> unit;
  mode : unit -> string;
}

let failed what = failwith ("perfbench: " ^ what ^ " failed to start")

let thttpd tr proc backend config label =
  match Tracer.span tr "httpd.Thttpd.start" (fun () -> Thttpd.start ~proc ~backend ~config ()) with
  | Ok t ->
      {
        listener = Thttpd.listener t;
        stats = Thttpd.stats t;
        stop = (fun () -> Tracer.span tr "httpd.Thttpd.stop" (fun () -> Thttpd.stop t));
        mode = (fun () -> label);
      }
  | Error `Emfile -> failed ("thttpd+" ^ label)

let start_server tr (cfg : Experiment.config) proc =
  let backend name f = Tracer.span tr ("httpd.Backend." ^ name) f in
  match cfg.Experiment.kind with
  | Experiment.Thttpd_select ->
      thttpd tr proc (backend "select" (fun () -> Backend.select proc)) cfg.thttpd "select"
  | Experiment.Thttpd_poll ->
      thttpd tr proc (backend "poll" (fun () -> Backend.poll proc)) cfg.thttpd "poll"
  | Experiment.Thttpd_epoll { max_events } ->
      thttpd tr proc
        (backend "epoll" (fun () -> Backend.epoll ~max_events proc))
        cfg.thttpd "epoll"
  | Experiment.Thttpd_devpoll { use_mmap; max_events } -> (
      match backend "devpoll" (fun () -> Backend.devpoll ~use_mmap ~max_events proc) with
      | Ok b -> thttpd tr proc b cfg.thttpd "devpoll"
      | Error `Emfile -> failed "/dev/poll")
  | Experiment.Phhttpd -> (
      match
        Tracer.span tr "httpd.Phhttpd.start" (fun () ->
            Phhttpd.start ~proc ~config:cfg.phhttpd ())
      with
      | Ok t ->
          {
            listener = Phhttpd.listener t;
            stats = Phhttpd.stats t;
            stop = (fun () -> Tracer.span tr "httpd.Phhttpd.stop" (fun () -> Phhttpd.stop t));
            mode =
              (fun () ->
                match Phhttpd.mode t with
                | Phhttpd.Signals -> "signals"
                | Phhttpd.Polling -> "polling");
          }
      | Error `Emfile -> failed "phhttpd")
  | Experiment.Hybrid -> invalid_arg "perfbench: the hybrid server is not benchmarked"

type built = {
  engine : Engine.t;
  host : Host.t;
  net : Sio_net.Network.t;
  server : server;
  pool : Inactive.t;
  host_create_s : float;
  server_start_s : float;
  inactive_start_s : float;
}

(* Set-up: everything before the first simulated event. *)
let build ?(tr = Tracer.disabled) (cfg : Experiment.config) =
  let clock = Unix.gettimeofday in
  let engine = Tracer.span tr "sim.Engine.create" (fun () -> Engine.create ~seed:cfg.seed ()) in
  Tracer.attach_engine tr engine;
  let th0 = clock () in
  let host =
    Tracer.span tr "kernel.Host.create" (fun () ->
        Host.create ~engine ~costs:cfg.costs ~wake_policy:cfg.wake_policy
          ~hints_by_default:cfg.hints ?mem_limit:cfg.kernel_mem_limit ())
  in
  let host_create_s = clock () -. th0 in
  let net =
    Tracer.span tr "net.Network.create" (fun () ->
        Sio_net.Network.create ~engine
          ?bandwidth_bits_per_sec:cfg.net_bandwidth_bits_per_sec ())
  in
  let proc =
    Tracer.span tr "kernel.Process.create" (fun () ->
        Process.create ~host ~fd_limit:cfg.server_fd_limit ~name:"server" ())
  in
  let ts0 = clock () in
  (* The document is served from the filesystem substrate, as in
     [Experiment]: every server's connection config reads through it. *)
  let fs = Tracer.span tr "kernel.Fs.create" (fun () -> Fs.create ~host ()) in
  Tracer.span tr "kernel.Fs.add_file" (fun () ->
      Fs.add_file fs ~path:cfg.workload.Workload.document_path
        ~bytes:cfg.workload.Workload.doc_bytes);
  let conn_of base = { base with Conn.fs = Some fs; transmit = cfg.transmit } in
  let cfg =
    {
      cfg with
      thttpd = { cfg.thttpd with Thttpd.conn = conn_of cfg.thttpd.Thttpd.conn };
      phhttpd = { cfg.phhttpd with Phhttpd.conn = conn_of cfg.phhttpd.Phhttpd.conn };
    }
  in
  let server = start_server tr cfg proc in
  let server_start_s = clock () -. ts0 in
  let ti0 = clock () in
  let rng = Rng.split (Engine.rng engine) in
  let pool =
    Tracer.span tr "loadgen.Inactive.start" (fun () ->
        Inactive.start ~engine ~net ~listener:server.listener ~workload:cfg.workload ~rng ())
  in
  {
    engine;
    host;
    net;
    server;
    pool;
    host_create_s;
    server_start_s;
    inactive_start_s = clock () -. ti0;
  }

let run ?(tr = Tracer.disabled) ?arrivals ?measure (cfg : Experiment.config) =
  let clock = Unix.gettimeofday in
  let t0 = clock () in
  let { engine; host; net; server; pool; host_create_s; server_start_s; inactive_start_s } =
    build ~tr cfg
  in
  let t_setup = clock () in
  Tracer.span ~tag:"settle" tr "sim.Engine.run" (fun () ->
      Engine.run ~until:cfg.settle engine);
  let t_settle = clock () in
  (* Counters at the settle/load boundary, so each phase's share of
     the work can be told apart. The host's counters are mutable: keep
     a copy. *)
  let events_settle = Engine.events_executed engine in
  let counters_settle = { host.Host.counters with Host.syscalls = host.Host.counters.Host.syscalls } in
  let pending_at_load = Engine.pending engine in
  let client =
    Tracer.span tr "loadgen.Httperf.start" (fun () ->
        Httperf.start ~engine ~net ~listener:server.listener ~workload:cfg.workload
          ?arrivals ~rng:(Rng.split (Engine.rng engine)) ())
  in
  let generation =
    match measure with Some d -> d | None -> Workload.generation_duration cfg.workload
  in
  let generation_end = Time.add (Engine.now engine) generation in
  let horizon =
    Time.add generation_end (Time.add cfg.workload.Workload.client_timeout cfg.drain)
  in
  let t_load0 = clock () in
  Tracer.span ~tag:"load" tr "sim.Engine.run" (fun () -> Engine.run ~until:horizon engine);
  let t_load = clock () in
  let metrics =
    Tracer.span tr "loadgen.Httperf.metrics" (fun () ->
        Httperf.metrics client ~t_end:generation_end)
  in
  let rate_series =
    Tracer.span tr "loadgen.Httperf.reply_rates" (fun () ->
        Httperf.reply_rates client ~until:generation_end)
  in
  let t_metrics = clock () in
  let final_mode = server.mode () in
  server.stop ();
  Tracer.span tr "loadgen.Inactive.stop" (fun () -> Inactive.stop pool);
  Tracer.detach_engine tr;
  let now = Engine.now engine in
  let link = Sio_net.Network.server_to_client net in
  {
    metrics;
    stats = server.stats;
    counters = host.Host.counters;
    cpu_busy = Cpu.total_busy host.Host.cpu;
    cpu_utilization = Cpu.utilization host.Host.cpu ~now;
    inactive_established = Inactive.established pool;
    inactive_reopens = Inactive.reopens pool;
    final_mode;
    mem_peak = host.Host.mem_peak;
    arena_high_water = Conn_arena.high_water host.Host.arena;
    events_settle;
    counters_settle;
    events = Engine.events_executed engine;
    pending_at_load;
    bytes_to_client = Sio_net.Link.bytes_sent link;
    link_utilization = Sio_net.Link.utilization link ~now;
    rate_series;
    setup_s = t_setup -. t0;
    host_create_s;
    server_start_s;
    inactive_start_s;
    settle_s = t_settle -. t_setup;
    load_s = t_load -. t_load0;
    metrics_s = t_metrics -. t_load;
    wall_s = clock () -. t0;
  }

(* The set-up phase alone, timed: builds a world and drops it. *)
let setup_time cfg =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (build cfg));
  Unix.gettimeofday () -. t0
