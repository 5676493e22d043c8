(* The simulated end-to-end metrics and the per-layer metrics of one
   workload run, computed from its worlds. Host-side end-to-end metrics
   (wall time, set-up, allocation, RSS) are taken in [Main]. *)

open Sio_sim
open Sio_kernel
open Sio_httpd
open Sio_loadgen

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }
let fi = float_of_int
let ratio a b = if b = 0. then 0. else a /. b

let worlds points = List.concat_map (fun p -> Array.to_list p.Workloads.shards) points
let sum_w points f = List.fold_left (fun acc r -> acc +. f r) 0. (worlds points)
let sum_p points f = List.fold_left (fun acc p -> acc +. f p) 0. points

let pooled_latency points =
  let h = Histogram.create () in
  List.iter (fun p -> Histogram.merge_into ~dst:h p.Workloads.metrics.Metrics.latency) points;
  h

let replies points = sum_p points (fun p -> fi p.Workloads.metrics.Metrics.completed)

(* Measured simulated seconds: one window per point (a cluster's
   shards share theirs). *)
let window_s points = sum_p points (fun p -> Time.to_sec_f p.Workloads.metrics.Metrics.duration)

let attempted points = sum_p points (fun p -> fi p.Workloads.metrics.Metrics.attempted)
let errors points = sum_p points (fun p -> fi (Metrics.total_errors p.Workloads.metrics.Metrics.errors))

let percentile_ms h p = if Histogram.count h = 0 then 0. else Time.to_ms_f (Histogram.percentile h p)

let simulated (run : Workloads.run) =
  let ps = run.Workloads.points in
  let h = pooled_latency ps in
  [
    m "sim_replies_per_s" "1/s" (ratio (replies ps) (window_s ps));
    m "sim_error_pct" "%" (100. *. ratio (errors ps) (attempted ps));
    m "sim_success_pct" "%" (100. *. ratio (replies ps) (attempted ps));
    m "sim_p50_ms" "ms" (percentile_ms h 50.);
    m "sim_p99_ms" "ms" (percentile_ms h 99.);
    m "sim_cpu_us_per_reply" "us" (ratio (sum_w ps (fun r -> fi r.World.cpu_busy) /. 1e3) (replies ps));
  ]

let latency_samples (run : Workloads.run) = Histogram.count (pooled_latency run.Workloads.points)

(* Highest offered rate served at >= 99 % of offered with no errors. *)
let knee_rps points =
  List.fold_left
    (fun acc p ->
      let mt = p.Workloads.metrics in
      if Metrics.total_errors mt.Metrics.errors = 0
         && mt.Metrics.reply_rate_avg >= 0.99 *. fi p.Workloads.rate
      then Stdlib.max acc p.Workloads.rate
      else acc)
    0 points

(* kernel.* and httpd.* over a set of points; [suffix] names the leg. *)
let kernel_httpd ~suffix points =
  let c f = sum_p points (fun p -> fi (f p.Workloads.counters)) in
  let s f = sum_p points (fun p -> fi (f p.Workloads.stats)) in
  let per_point_max f = List.fold_left (fun acc p -> Float.max acc (f p)) 0. points in
  let shard_sum f p = Array.fold_left (fun acc r -> acc +. f r) 0. p.Workloads.shards in
  let n_worlds = fi (List.length (worlds points)) in
  let r = replies points in
  let polls = c (fun k -> k.Host.driver_polls) and skips = c (fun k -> k.Host.hint_skips) in
  List.map
    (fun x -> { x with name = x.name ^ suffix })
    [
      m "kernel.syscalls_per_reply" "count" (ratio (c (fun k -> k.Host.syscalls)) r);
      m "kernel.driver_polls_per_reply" "count" (ratio polls r);
      m "kernel.hint_hit_ratio" "ratio" (ratio skips (skips +. polls));
      m "kernel.wakes_per_reply" "count" (ratio (c (fun k -> k.Host.wait_queue_wakes)) r);
      m "kernel.rt_dropped" "count" (c (fun k -> k.Host.rt_dropped));
      m "kernel.rt_overflows" "count" (c (fun k -> k.Host.rt_overflows));
      m "kernel.refused" "count" (c (fun k -> k.Host.connections_refused));
      m "kernel.cpu_utilization" "ratio"
        (ratio (sum_w points (fun w -> w.World.cpu_utilization)) n_worlds);
      m "kernel.mem_peak_mb" "MB"
        (per_point_max (shard_sum (fun w -> fi w.World.mem_peak)) /. 1e6);
      m "kernel.arena_high_water" "count"
        (per_point_max (shard_sum (fun w -> fi w.World.arena_high_water)));
      m "httpd.reply_ratio" "ratio"
        (ratio (s (fun t -> t.Server_stats.replies)) (s (fun t -> t.Server_stats.accepted)));
      m "httpd.emfile_drops" "count" (s (fun t -> t.Server_stats.emfile_drops));
      m "httpd.stale_events" "count" (s (fun t -> t.Server_stats.stale_events));
      m "httpd.overflow_recoveries" "count" (s (fun t -> t.Server_stats.overflow_recoveries));
      m "httpd.knee_rps" "1/s" (fi (knee_rps points));
    ]

let max_over_mean xs =
  match xs with
  | [] -> 1.
  | _ ->
      let mean = List.fold_left ( +. ) 0. xs /. fi (List.length xs) in
      ratio (List.fold_left Float.max 0. xs) mean

let leg_suffixes = [ "poll"; "devpoll"; "rt" ]

(* Every per-layer metric except the runtime ones (read in [Main]).
   paper-501 reports kernel.* and httpd.* per leg as well; the other
   workloads have no such legs and report those as 0. *)
let layers (run : Workloads.run) =
  let ps = run.Workloads.points in
  let ws = worlds ps in
  let events = sum_w ps (fun r -> fi r.World.events) in
  let loop_s = sum_w ps (fun r -> r.World.settle_s +. r.World.load_s) in
  let err f = sum_p ps (fun p -> fi (f p.Workloads.metrics.Metrics.errors)) in
  let pool_tasks =
    match ps with
    | [ p ] when Array.length p.Workloads.shards > 1 ->
        Array.to_list (Array.map (fun r -> r.World.wall_s) p.Workloads.shards)
    | _ -> List.map (fun r -> r.World.wall_s) ws
  in
  let shard_conns =
    List.concat_map (fun p -> Array.to_list (Array.map fi p.Workloads.shard_conns)) ps
  in
  (* Work before and after the load starts: the settle phase opens the
     idle population, the load phase serves the offered requests. *)
  let phases name unit total settle =
    let t = sum_w ps total and s = sum_w ps settle in
    [ m (name ^ ".settle") unit s; m (name ^ ".load") unit (t -. s) ]
  in
  let counter name f =
    phases name "count" (fun r -> fi (f r.World.counters)) (fun r -> fi (f r.World.counters_settle))
  in
  let per_leg =
    List.concat_map
      (fun leg ->
        kernel_httpd ~suffix:("." ^ leg)
          (List.filter (fun p -> String.equal p.Workloads.leg leg) ps))
      leg_suffixes
  in
  [
    m "sim.events" "count" events;
    m "sim.events_per_s" "1/s" (ratio events loop_s);
  ]
  @ phases "sim.events" "count" (fun r -> fi r.World.events) (fun r -> fi r.World.events_settle)
  @ [
    m "sim.settle_s" "s" (sum_w ps (fun r -> r.World.settle_s));
    m "sim.load_s" "s" (sum_w ps (fun r -> r.World.load_s));
    m "sim.pending_at_load" "count"
      (List.fold_left (fun acc r -> Float.max acc (fi r.World.pending_at_load)) 0. ws);
    m "sim.pool_task_max_over_mean" "ratio" (max_over_mean pool_tasks);
    m "net.bytes_to_client" "bytes" (sum_w ps (fun r -> fi r.World.bytes_to_client));
    m "net.link_utilization" "ratio"
      (ratio (sum_w ps (fun r -> r.World.link_utilization)) (fi (List.length ws)));
    m "kernel.host_create_s" "s" (sum_w ps (fun r -> r.World.host_create_s));
    m "httpd.start_s" "s" (sum_w ps (fun r -> r.World.server_start_s));
    m "loadgen.inactive_start_s" "s" (sum_w ps (fun r -> r.World.inactive_start_s));
  ]
  @ kernel_httpd ~suffix:"" ps
  @ counter "kernel.syscalls" (fun c -> c.Host.syscalls)
  @ counter "kernel.driver_polls" (fun c -> c.Host.driver_polls)
  @ counter "kernel.wakes" (fun c -> c.Host.wait_queue_wakes)
  @ counter "kernel.accepts" (fun c -> c.Host.accepts)
  @ per_leg
  @ [
      m "loadgen.errors.timeouts" "count" (err (fun e -> e.Metrics.timeouts));
      m "loadgen.errors.refused" "count" (err (fun e -> e.Metrics.refused));
      m "loadgen.errors.resets" "count" (err (fun e -> e.Metrics.resets));
      m "loadgen.errors.fd_limited" "count" (err (fun e -> e.Metrics.fd_limited));
      m "loadgen.errors.port_limited" "count" (err (fun e -> e.Metrics.port_limited));
      m "loadgen.errors.truncated" "count" (err (fun e -> e.Metrics.truncated));
      m "loadgen.latency_samples" "count" (fi (latency_samples run));
      m "loadgen.inactive_established" "count" (sum_w ps (fun r -> fi r.World.inactive_established));
      m "loadgen.inactive_reopens" "count" (sum_w ps (fun r -> fi r.World.inactive_reopens));
      m "loadgen.metrics_s" "s" (sum_w ps (fun r -> r.World.metrics_s));
      m "loadgen.steer_s" "s" run.Workloads.steer_s;
      m "loadgen.merge_s" "s" run.Workloads.merge_s;
      m "loadgen.shard_conns_max_over_mean" "ratio" (max_over_mean shard_conns);
    ]

let span_layers = [ "bench"; "sim"; "net"; "kernel"; "httpd"; "loadgen" ]

(* Self time per layer: the self time of every span whose name starts
   with the layer. *)
let self_times spans =
  let selfs = Tracer.self_times spans in
  List.map
    (fun layer ->
      let prefix = layer ^ "." in
      let total =
        List.fold_left
          (fun acc ((s : Tracer.span), self) ->
            if String.starts_with ~prefix s.Tracer.name then acc +. self else acc)
          0. selfs
      in
      m (layer ^ ".self_s") "s" total)
    span_layers
