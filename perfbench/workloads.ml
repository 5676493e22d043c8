(* The benchmark's three workloads, their configs generated from the
   workload seed, and the runners that build their worlds.

   All three are open loop in simulated time: httperf offers one 6 KB
   GET per fresh connection on a fixed schedule, whatever the server
   does. The program only ever receives the configs built here. *)

open Sio_sim
open Sio_kernel
open Sio_httpd
open Sio_loadgen

type t = Paper_501 | Idle_100k | Cluster_8x

let all = [ Paper_501; Idle_100k; Cluster_8x ]

let name = function
  | Paper_501 -> "paper-501"
  | Idle_100k -> "idle-100k"
  | Cluster_8x -> "cluster-8x"

let of_name s = List.find_opt (fun w -> String.equal (name w) s) all

(* One measurement window: a single world, or the shards of one
   cluster point, which share the window in simulated time. *)
type point = {
  leg : string;
  rate : int;  (** aggregate offered rate, req/s *)
  shards : World.result array;
  shard_conns : int array;  (** connections offered to each shard *)
  metrics : Metrics.t;  (** merged client view *)
  stats : Server_stats.t;  (** merged server view *)
  counters : Host.counters;  (** summed host counters *)
}

let single ~leg ~rate (r : World.result) =
  {
    leg;
    rate;
    shards = [| r |];
    shard_conns = [| r.World.metrics.Metrics.attempted |];
    metrics = r.World.metrics;
    stats = r.World.stats;
    counters = r.World.counters;
  }

(* ---- paper-501: the paper's fig8 / fig9 / fig13 sweeps ---- *)

(* The three notification mechanisms of figs 8, 9 and 13, each beside
   501 inactive high-latency connections. *)
let legs =
  [
    ("poll", Experiment.Thttpd_poll);
    ("devpoll", Experiment.Thttpd_devpoll { use_mmap = true; max_events = 64 });
    ("rt", Experiment.Phhttpd);
  ]

(* The figures' 7 000 connections per point; every other rate of the
   figures' 50 req/s grid, which halves the host cost of a repetition
   so that more repetitions fit in a run. *)
let paper_scale = 0.2
let paper_rates = Sweep.rates ~from:500 ~until:1100 ~step:100

(* Same derivation as [Figures.run] + [Sweep.run]: the figure's scaled
   workload, a per-rate seed, and at least three seconds of load. *)
let paper_configs ?(scale = paper_scale) ?(rates = paper_rates) ~seed () =
  List.concat_map
    (fun (leg, kind) ->
      let workload =
        Workload.scaled
          { Workload.default with Workload.inactive_connections = 501 }
          scale
      in
      let base = { (Experiment.default_config ~kind ~workload) with Experiment.seed } in
      List.map
        (fun rate ->
          let total = Stdlib.max workload.Workload.total_connections (3 * rate) in
          ( leg,
            rate,
            {
              base with
              Experiment.workload =
                { workload with Workload.request_rate = rate; total_connections = total };
              seed = Rng.derive ~seed rate;
            } ))
        rates)
    legs

(* ---- idle-100k: idle-scaling's mega-idle epoll point ---- *)

let idle_count = 100_000
let idle_rate = 500

(* Same parameters as idle-scaling's point above its 35 000-connection
   cap: connects paced at 2 500 SYN/s, a 5 s retry timer, and the idle
   sweep pushed past the horizon. *)
let idle_config ~seed =
  let syn_rate = 2_500 in
  let open_window = Time.ms (idle_count * 1000 / syn_rate) in
  let workload =
    {
      Workload.default with
      Workload.request_rate = idle_rate;
      total_connections = Stdlib.max 100 (3 * idle_rate);
      inactive_connections = idle_count;
      inactive_open_window = open_window;
      inactive_reopen_delay = Time.s 5;
    }
  in
  let base =
    Experiment.default_config ~kind:(Experiment.Thttpd_epoll { max_events = 64 }) ~workload
  in
  {
    base with
    Experiment.seed = Rng.derive ~seed idle_count;
    server_fd_limit = idle_count + 2048;
    settle = Time.add (Time.s (2 + (idle_count / 5000))) open_window;
    thttpd =
      { base.Experiment.thttpd with Thttpd.backlog = 4096; idle_timeout = Time.s 7200 };
  }

(* ---- cluster-8x: shard-scaling's 8-shard epoll point ---- *)

let cluster_shards = 8
let cluster_rate = 6400
let cluster_idle = 10_000
let cluster_scale = 0.2

(* Same as shard-scaling's epoll point at 8 shards: hash steering over
   a uniform population, partitioned memory. *)
let cluster_config ?(scale = cluster_scale) ?(shards = cluster_shards) ~seed () =
  let total = Stdlib.max 400 (int_of_float (float_of_int (25 * cluster_rate) *. scale)) in
  let workload =
    {
      Workload.default with
      Workload.request_rate = cluster_rate;
      total_connections = total;
      inactive_connections = cluster_idle;
    }
  in
  let base =
    Experiment.default_config ~kind:(Experiment.Thttpd_epoll { max_events = 64 }) ~workload
  in
  let base =
    {
      base with
      Experiment.seed = Rng.derive ~seed (0x5ca1e + shards);
      server_fd_limit = cluster_idle + 8192;
      settle = Time.s (2 + (cluster_idle / 5000));
      thttpd = { base.Experiment.thttpd with Thttpd.backlog = 4096 };
    }
  in
  Cluster.default_config ~base ~shards

(* The steering pre-pass of [Cluster.run]: the global schedule split by
   [Shard_cluster.route], the idle population and memory budget
   partitioned. Returns each shard's config and arrival offsets. *)
let steer (c : Cluster.config) =
  if c.Cluster.mem_mode <> Cluster.Partitioned then
    invalid_arg "perfbench: only partitioned cluster memory is benchmarked";
  let w = c.Cluster.base.Experiment.workload in
  let n = c.Cluster.shards in
  let total = w.Workload.total_connections in
  let interval_ns = 1_000_000_000 / w.Workload.request_rate in
  let arrivals = Array.init total (fun i -> Time.ns (i * interval_ns)) in
  let assignment =
    Shard_cluster.route ~policy:c.Cluster.policy ~shards:n ~population:c.Cluster.population
      ~seed:c.Cluster.base.Experiment.seed arrivals
  in
  let shard_conns = Shard_cluster.shard_counts ~shards:n assignment in
  let shard_arrivals = Array.make n [] in
  for i = total - 1 downto 0 do
    let s = assignment.(i) in
    shard_arrivals.(s) <- arrivals.(i) :: shard_arrivals.(s)
  done;
  let idle = Shard_cluster.split_evenly ~shards:n w.Workload.inactive_connections in
  let mem =
    match c.Cluster.base.Experiment.kernel_mem_limit with
    | Some limit -> Array.map Option.some (Shard_cluster.split_evenly ~shards:n limit)
    | None -> Array.make n None
  in
  let shard_cfg s =
    {
      c.Cluster.base with
      Experiment.workload =
        { w with Workload.total_connections = shard_conns.(s); inactive_connections = idle.(s) };
      seed = Rng.derive ~seed:c.Cluster.base.Experiment.seed (0x5ad + s);
      kernel_mem_limit = mem.(s);
    }
  in
  (Array.init n shard_cfg, shard_arrivals, shard_conns)

(* The merge of [Cluster.run]: counters summed, histograms merged, the
   reply-rate statistics taken over the element-wise sum of the shards'
   rate series on their common grid. *)
let merge ~rate ~measure (shards : World.result array) =
  let errors =
    { Metrics.timeouts = 0; refused = 0; resets = 0; fd_limited = 0; port_limited = 0; truncated = 0 }
  in
  let latency = Histogram.create () in
  let counters = Host.fresh_counters () in
  let attempted = ref 0 and completed = ref 0 in
  let series_len =
    Array.fold_left (fun n r -> Stdlib.max n (List.length r.World.rate_series)) 0 shards
  in
  let series = Array.make series_len 0. in
  Array.iter
    (fun (r : World.result) ->
      let m = r.World.metrics in
      attempted := !attempted + m.Metrics.attempted;
      completed := !completed + m.Metrics.completed;
      let e = m.Metrics.errors in
      errors.Metrics.timeouts <- errors.Metrics.timeouts + e.Metrics.timeouts;
      errors.Metrics.refused <- errors.Metrics.refused + e.Metrics.refused;
      errors.Metrics.resets <- errors.Metrics.resets + e.Metrics.resets;
      errors.Metrics.fd_limited <- errors.Metrics.fd_limited + e.Metrics.fd_limited;
      errors.Metrics.port_limited <- errors.Metrics.port_limited + e.Metrics.port_limited;
      errors.Metrics.truncated <- errors.Metrics.truncated + e.Metrics.truncated;
      Histogram.merge_into ~dst:latency m.Metrics.latency;
      List.iteri (fun i x -> series.(i) <- series.(i) +. x) r.World.rate_series;
      let c = r.World.counters in
      counters.Host.syscalls <- counters.Host.syscalls + c.Host.syscalls;
      counters.Host.driver_polls <- counters.Host.driver_polls + c.Host.driver_polls;
      counters.Host.hint_skips <- counters.Host.hint_skips + c.Host.hint_skips;
      counters.Host.wait_queue_wakes <- counters.Host.wait_queue_wakes + c.Host.wait_queue_wakes;
      counters.Host.rt_enqueued <- counters.Host.rt_enqueued + c.Host.rt_enqueued;
      counters.Host.rt_dropped <- counters.Host.rt_dropped + c.Host.rt_dropped;
      counters.Host.rt_overflows <- counters.Host.rt_overflows + c.Host.rt_overflows;
      counters.Host.softirqs <- counters.Host.softirqs + c.Host.softirqs;
      counters.Host.accepts <- counters.Host.accepts + c.Host.accepts;
      counters.Host.connections_refused <-
        counters.Host.connections_refused + c.Host.connections_refused)
    shards;
  let stats = Stats.create () in
  Array.iter (Stats.add stats) series;
  if Stats.count stats = 0 && !completed > 0 then begin
    let d = Time.to_sec_f measure in
    if d > 0. then Stats.add stats (float_of_int !completed /. d)
  end;
  let have = Stats.count stats > 0 in
  let stat f = if have then f stats else 0. in
  let metrics =
    {
      Metrics.target_rate = rate;
      attempted = !attempted;
      completed = !completed;
      errors;
      reply_rate_avg = stat Stats.mean;
      reply_rate_sd = stat Stats.stddev;
      reply_rate_min = stat Stats.min;
      reply_rate_max = stat Stats.max;
      error_percent =
        (if !attempted = 0 then 0.
         else
           100. *. float_of_int (Metrics.total_errors errors) /. float_of_int !attempted);
      latency;
      duration = measure;
    }
  in
  let server_stats =
    Shard_cluster.merge_stats (Array.to_list (Array.map (fun (r : World.result) -> r.World.stats) shards))
  in
  (metrics, server_stats, counters)

(* ---- running a workload ---- *)

type run = {
  workload : t;
  points : point list;
  steer_s : float;  (** cluster steering pre-pass, host seconds *)
  merge_s : float;  (** cluster merge, host seconds *)
  recorders : Tracer.t list;  (** one per world, when traced *)
}

(* A recorder for world [w], its spans hanging under the workload
   recorder's current span. *)
let world_recorder tr w =
  Tracer.create ~enabled:(Tracer.enabled tr) ~world:w ~root_parent:(Tracer.current tr) ()

let run_cluster ~tr ?(between = ignore) (c : Cluster.config) =
  let t0 = Unix.gettimeofday () in
  let cfgs, arrivals, shard_conns = Tracer.span tr "httpd.Shard_cluster.route" (fun () -> steer c) in
  let steer_s = Unix.gettimeofday () -. t0 in
  let w = c.Cluster.base.Experiment.workload in
  let measure = Workload.generation_duration w in
  (* The shards run one after another. *)
  let recorders = Array.init c.Cluster.shards (fun s -> world_recorder tr (s + 1)) in
  let shards =
    Array.mapi
      (fun s r ->
        between ();
        Tracer.span r "bench.world" (fun () ->
            World.run ~tr:r ~arrivals:arrivals.(s) ~measure cfgs.(s)))
      recorders
  in
  between ();
  let t1 = Unix.gettimeofday () in
  let metrics, stats, counters = merge ~rate:w.Workload.request_rate ~measure shards in
  let merge_s = Unix.gettimeofday () -. t1 in
  let point = { leg = "epoll"; rate = w.Workload.request_rate; shards; shard_conns; metrics; stats; counters } in
  (point, steer_s, merge_s, Array.to_list recorders)

(* [between] runs before every world and after the last one, outside
   the worlds' own timings. *)
let run ?(tr = Tracer.disabled) ?(between = ignore) ~seed workload =
  match workload with
  | Paper_501 ->
      let points, recorders =
        List.split
          (List.mapi
             (fun i (leg, rate, cfg) ->
               let rec_ = world_recorder tr (i + 1) in
               between ();
               let r = Tracer.span rec_ "bench.world" (fun () -> World.run ~tr:rec_ cfg) in
               (single ~leg ~rate r, rec_))
             (paper_configs ~seed ()))
      in
      between ();
      { workload; points; steer_s = 0.; merge_s = 0.; recorders }
  | Idle_100k ->
      let rec_ = world_recorder tr 1 in
      between ();
      let r = Tracer.span rec_ "bench.world" (fun () -> World.run ~tr:rec_ (idle_config ~seed)) in
      between ();
      {
        workload;
        points = [ single ~leg:"epoll" ~rate:idle_rate r ];
        steer_s = 0.;
        merge_s = 0.;
        recorders = [ rec_ ];
      }
  | Cluster_8x ->
      let point, steer_s, merge_s, recorders =
        run_cluster ~tr ~between (cluster_config ~seed ())
      in
      { workload; points = [ point ]; steer_s; merge_s; recorders }

(* Set-up alone, timed: every world of the workload built and dropped
   (for the cluster, after the steering pre-pass). *)
let setup_time ~seed = function
  | Paper_501 ->
      List.fold_left
        (fun acc (_, _, cfg) -> acc +. World.setup_time cfg)
        0. (paper_configs ~seed ())
  | Idle_100k -> World.setup_time (idle_config ~seed)
  | Cluster_8x ->
      let t0 = Unix.gettimeofday () in
      let cfgs, _, _ = steer (cluster_config ~seed ()) in
      let steer_s = Unix.gettimeofday () -. t0 in
      Array.fold_left (fun acc cfg -> acc +. World.setup_time cfg) steer_s cfgs
