(* One measured repetition of one workload, in a process of its own so
   that the peak RSS it reports is this workload's alone.

     perfbench_main.exe --workload NAME --seed N [--trace] [--verify]

   Prints one JSON object: the simulated digest, the correctness
   failures, the host and simulated end-to-end metrics and, with
   --trace, the per-layer metrics and the file the spans went to
   ([spans_file]). [run.py] runs this repeatedly and aggregates. Exits
   1 when a check failed. *)

open Perfbench

type args = { workload : Workloads.t; seed : int; trace : bool; verify : bool }

(* Timed set-ups after the run, besides the run's own; [setup_s] is
   the median of all of them. *)
let setup_repeats = 10

(* At each boundary, calibration slices run for at least this share of
   the host time since the last boundary (and at least one runs), so
   a long world is measured against as much slice time, for its
   length, as a short one. *)
let slice_share = 0.08

(* Where a traced run writes its spans, relative to the checkout. *)
let spans_file w seed = Printf.sprintf "perfbench/out/spans-%s-seed%d.json" (Workloads.name w) seed

let parse () =
  let workload = ref "" and seed = ref 42 and trace = ref false and verify = ref false in
  let usage = "perfbench_main.exe --workload (paper-501|idle-100k|cluster-8x) [options]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--trace", Arg.Set trace, " record spans and report per-layer metrics");
      ("--verify", Arg.Set verify, " also run the cluster with Cluster.run, pooled, and compare");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match Workloads.of_name !workload with
  | Some w -> { workload = w; seed = !seed; trace = !trace; verify = !verify }
  | _ ->
      Arg.usage [] usage;
      exit 2

(* The process's own high-water RSS, in MB (VmHWM is in kB). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024. /. 1e6)
        | _ -> find ()
        | exception End_of_file -> 0.
      in
      find ())

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (x : Summary.metric) ->
           Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string x.Summary.name)
             x.Summary.value (json_string x.Summary.unit))
         ms)
  ^ "}"

let write_spans file spans =
  (try Sys.mkdir (Filename.dirname file) 0o755 with Sys_error _ -> ());
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i ((s : Tracer.span), self) ->
          Printf.fprintf oc
            "%s{\"id\": %d, \"world\": %d, \"parent\": %d, \"name\": %s, \"tag\": %s, \
             \"start\": %.9f, \"end\": %.9f, \"self_s\": %.9f, \"minor_words\": %.0f, \
             \"events\": %d}"
            (if i = 0 then "" else ",\n")
            s.Tracer.id s.Tracer.world s.Tracer.parent (json_string s.Tracer.name)
            (json_string s.Tracer.tag) s.Tracer.start s.Tracer.stop self s.Tracer.minor_words
            s.Tracer.events)
        (Tracer.self_times spans);
      output_string oc "\n]\n")

let () =
  let a = parse () in
  let w = a.workload in
  let tr = Tracer.create ~enabled:a.trace ~world:0 () in
  (* The first slice pages its tables in; it is not counted. *)
  ignore (Calib.slice ());
  let slices = ref [] and last = ref 0. in
  let slice () =
    let since = Unix.gettimeofday () -. !last and spent = ref 0. in
    while !spent = 0. || !spent < slice_share *. since do
      let s = Tracer.span tr "bench.Calib.slice" Calib.slice in
      slices := s :: !slices;
      spent := !spent +. s
    done;
    last := Unix.gettimeofday ()
  in
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  last := t0;
  (* The measured run is sequential, the cluster's shards too: on a
     shared host a pool's worker domain waits on whatever else runs on
     the other cores, which made pooled wall time swing by half from
     run to run. The library's pooled run is the check below. *)
  let run =
    Tracer.span tr "bench.workload" (fun () -> Workloads.run ~tr ~between:slice ~seed:a.seed w)
  in
  let raw_wall_s = Unix.gettimeofday () -. t0 -. List.fold_left ( +. ) 0. !slices in
  let gc1 = Gc.quick_stat () in
  let peak_rss_mb = peak_rss_mb () in
  let run_setup =
    run.Workloads.steer_s
    +. Summary.sum_w run.Workloads.points (fun r -> r.World.setup_s)
  in
  let setups =
    run_setup
    :: List.init setup_repeats (fun _ ->
           (* Each timed set-up starts from a collected heap, so no
              major-GC work left over from the last one lands in it. *)
           Gc.full_major ();
           Workloads.setup_time ~seed:a.seed w)
  in
  slice ();
  let raw_setup_s = median setups in
  let scale = Calib.scale !slices in
  let digest = Checks.digest run in
  let failures =
    Checks.conservation run
    @
    match (a.verify, run.Workloads.points) with
    | true, [ sequential ] when w = Workloads.Cluster_8x ->
        (* The library runs the same cluster, its shards on a pool of
           the default size (one worker per spare core); its outcome
           must add up and match the sequential worlds. *)
        let o =
          Sio_sim.Domain_pool.with_pool (fun pool ->
              Sio_loadgen.Cluster.run ~pool (Workloads.cluster_config ~seed:a.seed ()))
        in
        Checks.cluster ~sequential o
    | _ -> []
  in
  let events = Summary.sum_w run.Workloads.points (fun r -> float_of_int r.World.events) in
  let words f = f gc1 -. f gc0 in
  let minor = words (fun s -> s.Gc.minor_words) in
  let host =
    Summary.
      [
        m "wall_s" "s" (raw_wall_s *. scale);
        m "setup_s" "s" (raw_setup_s *. scale);
        m "alloc_mwords" "Mwords" (minor /. 1e6);
        m "peak_rss_mb" "MB" peak_rss_mb;
        m "raw_wall_s" "s" raw_wall_s;
        m "raw_setup_s" "s" raw_setup_s;
        m "calib_slice_s" "s" (Calib.nominal_s /. scale);
      ]
  in
  let spans_file = if a.trace then spans_file w a.seed else "" in
  let layers =
    if not a.trace then []
    else begin
      let spans =
        Tracer.spans tr @ List.concat_map Tracer.spans run.Workloads.recorders
      in
      write_spans spans_file spans;
      Summary.layers run
      @ Summary.
          [
            m "runtime.minor_words_per_event" "words" (ratio minor events);
            m "runtime.promoted_words_per_event" "words"
              (ratio (words (fun s -> s.Gc.promoted_words)) events);
            m "runtime.major_collections" "count"
              (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
            m "runtime.top_heap_mb" "MB"
              (float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
          ]
      @ Summary.self_times spans
    end
  in
  Printf.printf
    "{\"workload\": %s, \"seed\": %d, \"digest\": %s, \"worlds\": %d, \"latency_samples\": %d, \
     \"failures\": [%s], \"host\": %s, \"sim\": %s, \"layers\": %s, \"spans\": %s}\n"
    (json_string (Workloads.name w))
    a.seed (json_string digest)
    (List.length (Summary.worlds run.Workloads.points))
    (Summary.latency_samples run)
    (String.concat ", " (List.map json_string failures))
    (json_metrics host)
    (json_metrics (Summary.simulated run))
    (json_metrics layers) (json_string spans_file);
  exit (if failures = [] then 0 else 1)
