(* Correctness checks run on every workload run, and the simulated
   digest the determinism checks compare.

   Conservation: every offered connection ends exactly once (attempted
   = completed + errors), a server never replies more often than it
   accepted, and for a cluster the shards add up to the merged view,
   both the benchmark's and the library's ([cluster]).
   Each check returns the failures it found, as one line each. *)

open Sio_sim
open Sio_kernel
open Sio_httpd
open Sio_loadgen

let conservation_world ~where (r : World.result) =
  let m = r.World.metrics in
  let errors = Metrics.total_errors m.Metrics.errors in
  let s = r.World.stats in
  List.filter_map Fun.id
    [
      (if m.Metrics.attempted <> m.Metrics.completed + errors then
         Some
           (Printf.sprintf "%s: attempted %d <> completed %d + errors %d" where
              m.Metrics.attempted m.Metrics.completed errors)
       else None);
      (if s.Server_stats.replies > s.Server_stats.accepted then
         Some
           (Printf.sprintf "%s: replies %d > accepted %d" where
              s.Server_stats.replies s.Server_stats.accepted)
       else None);
    ]

(* ---- canonical text of the fields a world and an outcome share ---- *)

let metrics_text (m : Metrics.t) =
  let e = m.Metrics.errors in
  let h = m.Metrics.latency in
  let pct p = if Histogram.count h = 0 then 0 else Histogram.percentile h p in
  Printf.sprintf "%d %d [%d %d %d %d %d %d] %h %h %h %h %h [%d %d %d %d %d %d %d] %d"
    m.Metrics.attempted m.Metrics.completed e.Metrics.timeouts e.Metrics.refused
    e.Metrics.resets e.Metrics.fd_limited e.Metrics.port_limited e.Metrics.truncated
    m.Metrics.reply_rate_avg m.Metrics.reply_rate_sd m.Metrics.reply_rate_min
    m.Metrics.reply_rate_max m.Metrics.error_percent (Histogram.count h) (Histogram.mean h)
    (Histogram.min_value h) (pct 50.) (pct 90.) (pct 99.) (Histogram.max_value h)
    m.Metrics.duration

let stats_text (s : Server_stats.t) =
  Printf.sprintf "%d %d %d %d %d %d %d %d %d %d %d" s.Server_stats.replies
    s.Server_stats.accepted s.Server_stats.dropped_conns s.Server_stats.timed_out_conns
    s.Server_stats.stale_events s.Server_stats.overflow_recoveries s.Server_stats.mode_switches
    s.Server_stats.emfile_drops s.Server_stats.enobufs_drops s.Server_stats.partial_writes
    s.Server_stats.bytes_sent

let counters_text (c : Host.counters) =
  Printf.sprintf "%d %d %d %d %d %d %d %d %d %d" c.Host.syscalls c.Host.driver_polls
    c.Host.hint_skips c.Host.wait_queue_wakes c.Host.rt_enqueued c.Host.rt_dropped
    c.Host.rt_overflows c.Host.softirqs c.Host.accepts c.Host.connections_refused

let outcome_text (o : Experiment.outcome) =
  String.concat " | "
    [
      metrics_text o.Experiment.metrics;
      stats_text o.Experiment.server_stats;
      counters_text o.Experiment.host_counters;
      Printf.sprintf "%h %d %d %s %d" o.Experiment.cpu_utilization
        o.Experiment.inactive_established o.Experiment.inactive_reopens o.Experiment.final_mode
        o.Experiment.kernel_mem_peak;
    ]

let result_text (r : World.result) =
  String.concat " | "
    [
      metrics_text r.World.metrics;
      stats_text r.World.stats;
      counters_text r.World.counters;
      Printf.sprintf "%h %d %d %s %d" r.World.cpu_utilization r.World.inactive_established
        r.World.inactive_reopens r.World.final_mode r.World.mem_peak;
    ]

(* ---- merged view = sum of the shards ---- *)

type view = { metrics : Metrics.t; stats : Server_stats.t; counters : Host.counters }

let of_world (r : World.result) =
  { metrics = r.World.metrics; stats = r.World.stats; counters = r.World.counters }

let of_outcome (o : Experiment.outcome) =
  {
    metrics = o.Experiment.metrics;
    stats = o.Experiment.server_stats;
    counters = o.Experiment.host_counters;
  }

let of_point (p : Workloads.point) =
  { metrics = p.Workloads.metrics; stats = p.Workloads.stats; counters = p.Workloads.counters }

let view_text v =
  String.concat " | " [ metrics_text v.metrics; stats_text v.stats; counters_text v.counters ]

let shard_sums ~where ~shard_conns merged shards =
  let sum f = Array.fold_left (fun acc v -> acc + f v) 0 shards in
  let m = merged.metrics in
  let pairs =
    [
      ("attempted", m.Metrics.attempted, sum (fun v -> v.metrics.Metrics.attempted));
      ("attempted vs steered", m.Metrics.attempted, Array.fold_left ( + ) 0 shard_conns);
      ("completed", m.Metrics.completed, sum (fun v -> v.metrics.Metrics.completed));
      ( "errors",
        Metrics.total_errors m.Metrics.errors,
        sum (fun v -> Metrics.total_errors v.metrics.Metrics.errors) );
      ( "latency samples",
        Histogram.count m.Metrics.latency,
        sum (fun v -> Histogram.count v.metrics.Metrics.latency) );
      ( "replies",
        merged.stats.Server_stats.replies,
        sum (fun v -> v.stats.Server_stats.replies) );
      ("accepts", merged.counters.Host.accepts, sum (fun v -> v.counters.Host.accepts));
    ]
  in
  List.filter_map
    (fun (what, merged, summed) ->
      if merged <> summed then
        Some (Printf.sprintf "%s: merged %s %d <> shard sum %d" where what merged summed)
      else None)
    pairs

let point_where (p : Workloads.point) = Printf.sprintf "%s@%d" p.Workloads.leg p.Workloads.rate

let conservation (run : Workloads.run) =
  List.concat_map
    (fun (p : Workloads.point) ->
      let where = point_where p in
      let worlds =
        List.concat
          (List.mapi
             (fun s r -> conservation_world ~where:(Printf.sprintf "%s/shard%d" where s) r)
             (Array.to_list p.Workloads.shards))
      in
      worlds
      @ shard_sums ~where ~shard_conns:p.Workloads.shard_conns (of_point p)
          (Array.map of_world p.Workloads.shards))
    run.Workloads.points

(* Canonical text of everything a world simulated; host timings are
   left out, so the digest is a function of the configs alone. *)
let world_text (r : World.result) =
  let m = r.World.metrics in
  let e = m.Metrics.errors in
  let s = r.World.stats in
  let c = r.World.counters in
  let lat = m.Metrics.latency in
  let pct p = if Histogram.count lat = 0 then 0 else Histogram.percentile lat p in
  String.concat ","
    (List.map string_of_int
       [
         m.Metrics.attempted; m.Metrics.completed; e.Metrics.timeouts; e.Metrics.refused;
         e.Metrics.resets; e.Metrics.fd_limited; e.Metrics.port_limited; e.Metrics.truncated;
         Histogram.count lat; Histogram.mean lat; pct 50.; pct 90.; pct 99.;
         Histogram.max_value lat; m.Metrics.duration;
         s.Server_stats.replies; s.Server_stats.accepted;
         s.Server_stats.dropped_conns; s.Server_stats.timed_out_conns;
         s.Server_stats.stale_events; s.Server_stats.overflow_recoveries;
         s.Server_stats.emfile_drops; s.Server_stats.enobufs_drops;
         s.Server_stats.bytes_sent;
         c.Host.syscalls; c.Host.driver_polls; c.Host.hint_skips; c.Host.wait_queue_wakes;
         c.Host.rt_enqueued; c.Host.rt_dropped; c.Host.rt_overflows; c.Host.softirqs;
         c.Host.accepts; c.Host.connections_refused;
         r.World.cpu_busy; r.World.inactive_established; r.World.inactive_reopens;
         r.World.mem_peak; r.World.arena_high_water; r.World.events_settle; r.World.events;
         r.World.counters_settle.Host.syscalls; r.World.counters_settle.Host.driver_polls;
         r.World.counters_settle.Host.wait_queue_wakes; r.World.counters_settle.Host.accepts;
         r.World.pending_at_load; r.World.bytes_to_client;
       ]
    @ List.map (Printf.sprintf "%h")
        (m.Metrics.reply_rate_avg :: m.Metrics.reply_rate_sd :: r.World.cpu_utilization
        :: r.World.rate_series)
    @ [ r.World.final_mode ])

let digest (run : Workloads.run) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (p : Workloads.point) ->
      Buffer.add_string b (point_where p);
      Array.iter (fun n -> Buffer.add_string b (Printf.sprintf ";%d" n)) p.Workloads.shard_conns;
      Array.iter
        (fun r ->
          Buffer.add_char b '|';
          Buffer.add_string b (world_text r))
        p.Workloads.shards;
      Buffer.add_char b '\n')
    run.Workloads.points;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Determinism: two runs of the same configs must simulate the same. *)
let same_digest ~what a b =
  if String.equal a b then [] else [ Printf.sprintf "%s: digest %s <> %s" what a b ]

(* The library's own cluster run of a config (pooled, [Cluster.run])
   against the benchmark's sequential wiring of the same config
   ([sequential]): the library's merged outcome must equal the sum of
   its shards, every pooled shard must simulate exactly what the
   sequential world did, and the benchmark's merge must equal the
   library's. *)
let cluster ~(sequential : Workloads.point) (o : Cluster.outcome) =
  let where = "Cluster.run" in
  let differs what a b =
    if String.equal a b then [] else [ Printf.sprintf "%s: %s: %s <> %s" where what a b ]
  in
  let ints a = String.concat " " (List.map string_of_int (Array.to_list a)) in
  shard_sums ~where ~shard_conns:o.Cluster.shard_conns (of_outcome o.Cluster.merged)
    (Array.map of_outcome o.Cluster.per_shard)
  @ differs "steered connections" (ints o.Cluster.shard_conns)
      (ints sequential.Workloads.shard_conns)
  @ differs "shards" (string_of_int (Array.length o.Cluster.per_shard))
      (string_of_int (Array.length sequential.Workloads.shards))
  @ List.concat
      (List.mapi
         (fun s (r : World.result) ->
           if s >= Array.length o.Cluster.per_shard then []
           else
             differs
               (Printf.sprintf "shard %d pooled vs sequential" s)
               (outcome_text o.Cluster.per_shard.(s))
               (result_text r))
         (Array.to_list sequential.Workloads.shards))
  @ differs "merge vs the benchmark's merge"
    (view_text (of_outcome o.Cluster.merged))
    (view_text (of_point sequential))
