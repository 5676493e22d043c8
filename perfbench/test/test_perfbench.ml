(* The benchmark's own tests.

   Drift guard: the benchmark builds its worlds from the layers' public
   functions instead of calling [Experiment.run] and [Cluster.run]; on
   small configs both must give the same outcome bit for bit, and the
   paper-501 sweep must reproduce the fig8 / fig9 / fig13 rows the
   figure harness prints at the same seed and scale.

   Checks: every correctness check is shown to fire on an outcome broken
   on purpose, and to stay quiet on the real one. *)

open Sio_sim
open Sio_httpd
open Sio_loadgen
open Perfbench

(* ---- drift guard ---- *)

let small_config kind =
  let workload =
    Workload.scaled
      { Workload.default with Workload.inactive_connections = 51; request_rate = 900 }
      0.01
  in
  { (Experiment.default_config ~kind ~workload) with Experiment.seed = 7 }

let kinds =
  [
    ("select", Experiment.Thttpd_select);
    ("poll", Experiment.Thttpd_poll);
    ("devpoll", Experiment.Thttpd_devpoll { use_mmap = true; max_events = 64 });
    ("epoll", Experiment.Thttpd_epoll { max_events = 64 });
    ("phhttpd", Experiment.Phhttpd);
  ]

let test_world_matches_experiment () =
  List.iter
    (fun (label, kind) ->
      let cfg = small_config kind in
      Alcotest.(check string)
        label
        (Checks.outcome_text (Experiment.run cfg))
        (Checks.result_text (World.run cfg)))
    kinds

let small_cluster () = Workloads.cluster_config ~scale:0.01 ~shards:4 ~seed:11 ()

let small_point () =
  let point, _, _, _ = Workloads.run_cluster ~tr:Tracer.disabled (small_cluster ()) in
  point

(* [Checks.cluster] compares every steered count, every shard and the
   merged outcome of [Cluster.run] with the benchmark's wiring. *)
let test_cluster_matches () =
  let sequential = small_point () in
  Alcotest.(check (list string))
    "Cluster.run" []
    (Checks.cluster ~sequential (Cluster.run (small_cluster ())));
  Alcotest.(check (list string))
    "Cluster.run ~pool" []
    (Checks.cluster ~sequential
       (Domain_pool.with_pool ~size:2 (fun pool -> Cluster.run ~pool (small_cluster ()))))

let figure_rows ~scale ~rates ~seed id =
  match Scalanio.Figures.find id with
  | None -> Alcotest.failf "no figure %s" id
  | Some fig ->
      List.concat_map
        (fun (s : Report.series) ->
          List.map
            (fun (p : Sweep.point) -> Fmt.str "%a" Metrics.pp_row p.Sweep.outcome.Experiment.metrics)
            s.Report.points)
        (Scalanio.Figures.run ~scale ~rates ~seed fig)

let test_paper_matches_figures () =
  let scale = 0.01 and rates = [ 600; 1000 ] and seed = 42 in
  let ours = Workloads.paper_configs ~scale ~rates ~seed () in
  List.iter
    (fun (leg, id) ->
      let rows =
        List.filter_map
          (fun (l, _, cfg) ->
            if String.equal l leg then
              Some (Fmt.str "%a" Metrics.pp_row (World.run cfg).World.metrics)
            else None)
          ours
      in
      Alcotest.(check (list string)) id (figure_rows ~scale ~rates ~seed id) rows)
    [ ("poll", "fig8"); ("devpoll", "fig9"); ("rt", "fig13") ]

(* ---- checks fire on broken outcomes ---- *)

let world = lazy (World.run (small_config (Experiment.Thttpd_epoll { max_events = 64 })))
let small_run () =
  let r = Lazy.force world in
  {
    Workloads.workload = Workloads.Idle_100k;
    points = [ Workloads.single ~leg:"epoll" ~rate:900 r ];
    steer_s = 0.;
    merge_s = 0.;
    recorders = [];
  }

let fires what failures =
  Alcotest.(check bool) (what ^ " fires") true (failures <> [])

let quiet what failures = Alcotest.(check (list string)) (what ^ " quiet") [] failures

let with_world f =
  let r = Lazy.force world in
  let r' = f r in
  { (small_run ()) with Workloads.points = [ Workloads.single ~leg:"epoll" ~rate:900 r' ] }

let test_attempted_conservation () =
  quiet "conservation" (Checks.conservation (small_run ()));
  fires "attempted = completed + errors"
    (Checks.conservation
       (with_world (fun r ->
            let m = r.World.metrics in
            { r with World.metrics = { m with Metrics.completed = m.Metrics.completed - 1 } })))

let test_replies_le_accepted () =
  fires "replies <= accepted"
    (Checks.conservation
       (with_world (fun r ->
            let s = Server_stats.create () in
            Server_stats.add ~into:s r.World.stats;
            s.Server_stats.replies <- s.Server_stats.accepted + 1;
            { r with World.stats = s })))

let test_shard_sums () =
  let point = small_point () in
  let run p = { (small_run ()) with Workloads.points = [ p ] } in
  quiet "shard sums" (Checks.conservation (run point));
  let m = point.Workloads.metrics in
  fires "merged completed = shard sum"
    (Checks.conservation
       (run
          {
            point with
            Workloads.metrics = { m with Metrics.completed = m.Metrics.completed + 1 };
          }));
  let conns = Array.copy point.Workloads.shard_conns in
  conns.(0) <- conns.(0) + 1;
  fires "merged attempted = steered" (Checks.conservation (run { point with Workloads.shard_conns = conns }))

let test_digest () =
  let d = Checks.digest (small_run ()) in
  quiet "same digest" (Checks.same_digest ~what:"repeat" d (Checks.digest (small_run ())));
  let broken = with_world (fun r -> { r with World.cpu_busy = r.World.cpu_busy + 1 }) in
  fires "digest" (Checks.same_digest ~what:"repeat" d (Checks.digest broken));
  (* Host timings are not part of the digest. *)
  let slower = with_world (fun r -> { r with World.wall_s = r.World.wall_s +. 1. }) in
  quiet "host time outside digest" (Checks.same_digest ~what:"repeat" d (Checks.digest slower))

let library = lazy (Cluster.run (small_cluster ()))

let with_completed delta (o : Experiment.outcome) =
  let m = o.Experiment.metrics in
  { o with Experiment.metrics = { m with Metrics.completed = m.Metrics.completed + delta } }

let test_cluster_check () =
  let sequential = small_point () in
  let o = Lazy.force library in
  quiet "cluster" (Checks.cluster ~sequential o);
  fires "library merge = shard sums"
    (Checks.cluster ~sequential { o with Cluster.merged = with_completed 1 o.Cluster.merged });
  let per_shard = Array.copy o.Cluster.per_shard in
  per_shard.(1) <- with_completed (-1) per_shard.(1);
  fires "pooled shard = sequential world"
    (Checks.cluster ~sequential { o with Cluster.per_shard });
  let shard_conns = Array.copy o.Cluster.shard_conns in
  shard_conns.(0) <- shard_conns.(0) + 1;
  fires "steered connections" (Checks.cluster ~sequential { o with Cluster.shard_conns });
  let m = sequential.Workloads.metrics in
  fires "library merge = benchmark merge"
    (Checks.cluster
       ~sequential:
         { sequential with Workloads.metrics = { m with Metrics.reply_rate_avg = m.Metrics.reply_rate_avg +. 1. } }
       o)

let test_traced_vs_untraced () =
  let cfg = small_config Experiment.Thttpd_poll in
  let tr = Tracer.create ~enabled:true ~world:1 () in
  let traced = World.run ~tr cfg in
  let plain = World.run cfg in
  Alcotest.(check string) "digest" (Checks.world_text plain) (Checks.world_text traced);
  let names = List.map (fun (s : Tracer.span) -> s.Tracer.name) (Tracer.spans tr) in
  List.iter
    (fun n -> Alcotest.(check bool) n true (List.mem n names))
    [ "sim.Engine.create"; "kernel.Host.create"; "net.Network.create"; "httpd.Thttpd.start";
      "loadgen.Inactive.start"; "sim.Engine.run"; "loadgen.Httperf.metrics" ]

let test_self_times () =
  let span id parent start stop =
    { Tracer.id; world = 0; parent; name = "x"; tag = ""; start; stop; minor_words = 0.; events = 0 }
  in
  (* Parent 0..10 with children 1..4 and 5..7, the first with a child
     of its own 2..3. *)
  let spans = [ span 0 (-1) 0. 10.; span 1 0 1. 4.; span 3 1 2. 3.; span 2 0 5. 7. ] in
  let self = List.map snd (Tracer.self_times spans) in
  Alcotest.(check (list (float 1e-9))) "self" [ 5.; 2.; 1.; 2. ] self

(* The calibration slice allocates nothing, so it cannot change the
   program's allocation count or its collector's work, and it does the
   same work every time. *)
let test_calib_slice () =
  let w0 = Gc.minor_words () in
  let a = Calib.work () in
  let b = Calib.work () in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "same work" a b;
  Alcotest.(check bool) (Printf.sprintf "allocates nothing (%.0f words)" words) true (words < 16.);
  Alcotest.(check (float 1e-12)) "scale" (Calib.nominal_s /. 0.03) (Calib.scale [ 0.02; 0.04 ])

(* A slice runs before every world and after the last. *)
let test_calib_between_worlds () =
  let n = ref 0 in
  let c = small_cluster () in
  ignore (Workloads.run_cluster ~tr:Tracer.disabled ~between:(fun () -> incr n) c);
  Alcotest.(check int) "slices" (c.Sio_loadgen.Cluster.shards + 1) !n

let () =
  Alcotest.run "perfbench"
    [
      ( "drift",
        [
          Alcotest.test_case "world = Experiment.run" `Quick test_world_matches_experiment;
          Alcotest.test_case "cluster = Cluster.run" `Quick test_cluster_matches;
          Alcotest.test_case "paper-501 = fig8/9/13 rows" `Quick test_paper_matches_figures;
        ] );
      ( "checks",
        [
          Alcotest.test_case "attempted conservation" `Quick test_attempted_conservation;
          Alcotest.test_case "replies <= accepted" `Quick test_replies_le_accepted;
          Alcotest.test_case "cluster shard sums" `Quick test_shard_sums;
          Alcotest.test_case "digest" `Quick test_digest;
          Alcotest.test_case "Cluster.run vs wiring" `Quick test_cluster_check;
          Alcotest.test_case "traced = untraced" `Quick test_traced_vs_untraced;
          Alcotest.test_case "span self time" `Quick test_self_times;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "slice" `Quick test_calib_slice;
          Alcotest.test_case "between worlds" `Quick test_calib_between_worlds;
        ] );
    ]
