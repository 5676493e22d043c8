(* Wall-clock microbenchmarks (bechamel) of the library's hot data
   structures and scan paths: what it costs to *run the simulator*,
   as opposed to the simulated costs measured elsewhere. *)

open Bechamel
open Toolkit
open Sio_sim
open Sio_kernel

let heap_push_pop =
  Test.make ~name:"heap push+pop (1k live)"
    (let h = Heap.create ~leq:(fun (a : int) b -> a <= b) ~dummy:0 () in
     for i = 0 to 999 do
       Heap.push h i
     done;
     Staged.stage (fun () ->
         Heap.push h 500;
         ignore (Heap.pop h)))

let event_queue_cycle =
  Test.make ~name:"event schedule+fire"
    (let e = Engine.create () in
     Staged.stage (fun () ->
         ignore (Engine.after e 10 (fun () -> ()));
         ignore (Engine.step e)))

let interest_set_replace =
  Test.make ~name:"interest_table set (replace, 1k)"
    (let t = Interest_table.create () in
     for fd = 0 to 999 do
       ignore (Interest_table.set t ~fd ~events:Pollmask.pollin)
     done;
     Staged.stage (fun () -> ignore (Interest_table.set t ~fd:512 ~events:Pollmask.pollin)))
  [@@lint.ignore "throwaway probe table: the whole Interest_table is dropped after the \
                  measurement, so there is nothing to remove entry-by-entry"]

let interest_find =
  Test.make ~name:"interest_table find (1k)"
    (let t = Interest_table.create () in
     for fd = 0 to 999 do
       ignore (Interest_table.set t ~fd ~events:Pollmask.pollin)
     done;
     Staged.stage (fun () -> ignore (Interest_table.find t 777)))
  [@@lint.ignore "throwaway probe table: the whole Interest_table is dropped after the \
                  measurement, so there is nothing to remove entry-by-entry"]

let zero_env n =
  let engine = Engine.create () in
  let host = Host.create ~engine ~costs:Cost_model.zero () in
  let sockets = Hashtbl.create n in
  for fd = 0 to n - 1 do
    Hashtbl.replace sockets fd (Socket.create_established ~host)
  done;
  (engine, host, sockets)

let poll_scan n =
  Test.make ~name:(Printf.sprintf "poll() scan, %d idle fds" n)
    (let engine, host, sockets = zero_env n in
     let interests = List.init n (fun fd -> (fd, Pollmask.pollin)) in
     Staged.stage (fun () ->
         Poll.wait ~host ~lookup:(Hashtbl.find_opt sockets) ~interests
           ~timeout:(Some Time.zero) ~k:(fun _ -> ());
         Engine.run engine))

let devpoll_scan n =
  Test.make ~name:(Printf.sprintf "DP_POLL scan, %d idle interests" n)
    (let engine, host, sockets = zero_env n in
     let dev = Devpoll.create ~host ~lookup:(Hashtbl.find_opt sockets) in
     Devpoll.write dev (List.init n (fun fd -> (fd, Pollmask.pollin)));
     Staged.stage (fun () ->
         Devpoll.dp_poll dev ~max_results:64 ~timeout:(Some Time.zero) ~k:(fun _ -> ());
         Engine.run engine))

(* The incremental ready sets: persistent poll/select sets and the
   devpoll active set keep scans O(active) on the host. The all-idle
   cases measure the analytic-batch fast path; the active-of cases
   measure the mark-and-skip walk with a bounded ready population
   (delivered bytes are never read, so those sockets stay ready and
   are re-probed every scan). *)
let pset_scan n =
  Test.make ~name:(Printf.sprintf "poll pset scan, %d idle fds" n)
    (let engine, host, sockets = zero_env n in
     let set = Poll.Pset.create ~host ~lookup:(Hashtbl.find_opt sockets) () in
     for fd = 0 to n - 1 do
       Poll.Pset.set set fd Pollmask.pollin
     done;
     Staged.stage (fun () ->
         Poll.Pset.wait_set set ~timeout:(Some Time.zero) ~k:(fun _ -> ());
         Engine.run engine))

(* The ready-heavy regime a poll server lives in past its knee: most
   of the set stays ready between scans (nothing reads), so the scan
   reports every ready entry from its cached probe. *)
let pset_scan_ready n k =
  Test.make ~name:(Printf.sprintf "poll pset scan, %d fds, %d ready" n k)
    (let engine, host, sockets = zero_env n in
     let set = Poll.Pset.create ~host ~lookup:(Hashtbl.find_opt sockets) () in
     for fd = 0 to n - 1 do
       Poll.Pset.set set fd Pollmask.pollin
     done;
     for fd = 0 to k - 1 do
       ignore (Socket.deliver (Hashtbl.find sockets fd) ~bytes_len:1 ~payload:"")
     done;
     Staged.stage (fun () ->
         Poll.Pset.wait_set set ~timeout:(Some Time.zero) ~k:(fun _ -> ());
         Engine.run engine))

let sset_scan n =
  Test.make ~name:(Printf.sprintf "select sset scan, %d idle fds" n)
    (let engine, host, sockets = zero_env n in
     let set = Select.Sset.create ~host ~lookup:(Hashtbl.find_opt sockets) () in
     for fd = 0 to n - 1 do
       Select.Sset.add set fd Pollmask.pollin
     done;
     Staged.stage (fun () ->
         Select.Sset.wait_sset set ~timeout:(Some Time.zero) ~k:(fun _ -> ());
         Engine.run engine))

let devpoll_scan_active n k =
  Test.make ~name:(Printf.sprintf "DP_POLL scan, %d active of %d" k n)
    (let engine, host, sockets = zero_env n in
     let dev = Devpoll.create ~host ~lookup:(Hashtbl.find_opt sockets) in
     Devpoll.write dev (List.init n (fun fd -> (fd, Pollmask.pollin)));
     for fd = 0 to k - 1 do
       ignore (Socket.deliver (Hashtbl.find sockets fd) ~bytes_len:1 ~payload:"")
     done;
     Staged.stage (fun () ->
         Devpoll.dp_poll dev ~max_results:k ~timeout:(Some Time.zero) ~k:(fun _ -> ());
         Engine.run engine))

let ready_set_tests =
  Test.make_grouped ~name:"ready-set"
    [
      pset_scan 1000;
      pset_scan_ready 1000 800;
      sset_scan 1000;
      devpoll_scan_active 1000 8;
      devpoll_scan_active 1000 64;
    ]

(* One whole request through a backend, as the servers drive it: the
   listener turns ready, the server accepts and registers the
   connection, the request arrives, the server reads it, replies and
   closes. What the figures pay per reply on the host, minus the
   network and the load generator. *)
let whole_request name mk =
  Test.make ~name
    (let engine = Engine.create () in
     let host = Host.create ~engine ~costs:Cost_model.zero () in
     let proc = Process.create ~host ~fd_limit:1024 ~name:"server" () in
     let listen_fd =
       match Kernel.listen proc ~backlog:16 with Ok fd -> fd | Error _ -> assert false
     in
     let listener =
       match Process.lookup_socket proc listen_fd with Some s -> s | None -> assert false
     in
     let backend = mk proc in
     Sio_httpd.Backend.add backend listen_fd Pollmask.pollin;
     let conn = ref None in
     let serve events =
       Ready_buffer.iter events (fun ev ->
           let fd = ev.Poll.fd in
           if fd = listen_fd then
             match Kernel.accept proc listen_fd with
             | Ok (cfd, sock) ->
                 Sio_httpd.Backend.add backend cfd Pollmask.pollin;
                 conn := Some sock
             | Error _ -> assert false
           else begin
             ignore (Kernel.read proc fd);
             ignore (Kernel.write proc fd ~bytes_len:6144);
             Sio_httpd.Backend.remove backend fd;
             ignore (Kernel.close proc fd)
           end)
     in
     let wait () =
       Sio_httpd.Backend.wait backend ~timeout:(Some Time.zero) ~k:serve;
       Engine.run engine
     in
     Staged.stage (fun () ->
         ignore (Socket.enqueue_accept listener (Socket.create_established ~host));
         wait ();
         (match !conn with
         | Some sock -> ignore (Socket.deliver sock ~bytes_len:64 ~payload:"")
         | None -> assert false);
         wait ()))

let request_tests =
  Test.make_grouped ~name:"request"
    [
      whole_request "whole request (poll)" Sio_httpd.Backend.poll;
      whole_request "whole request (select)" Sio_httpd.Backend.select;
      whole_request "whole request (devpoll)" (fun proc ->
          match Sio_httpd.Backend.devpoll proc with Ok b -> b | Error _ -> assert false);
      whole_request "whole request (epoll)" (fun proc -> Sio_httpd.Backend.epoll proc);
    ]

let rt_enqueue_dequeue =
  Test.make ~name:"RT signal enqueue+sigwaitinfo"
    (let engine, host, _ = zero_env 1 in
     let q = Rt_signal.create_queue ~host () in
     let sock = Socket.create_established ~host in
     Rt_signal.set_signal q ~socket:sock ~fd:3 ~signo:Rt_signal.sigrtmin;
     Staged.stage (fun () ->
         ignore (Socket.deliver sock ~bytes_len:1 ~payload:"");
         ignore (Socket.read_all sock);
         Rt_signal.sigwaitinfo q ~k:(fun _ -> ());
         Engine.run engine))

let histogram_add =
  Test.make ~name:"histogram add"
    (let h = Histogram.create () in
     Staged.stage (fun () -> Histogram.add h 1_234_567))

(* The ordered-iteration race that motivated Fd_map: walking an
   fd-keyed table in ascending fd order, either intrinsically (Fd_map)
   or via the defensive snapshot the Hashtbl call sites used to take
   (fold into a list, sort, walk). *)
let fd_map_iterate n =
  Test.make ~name:(Printf.sprintf "fd_map ordered iterate (%d)" n)
    (let m = Fd_map.create ~initial_capacity:64 () in
     for fd = 0 to n - 1 do
       Fd_map.set m fd fd
     done;
     Staged.stage (fun () ->
         let sum = ref 0 in
         Fd_map.iter m (fun fd _ -> sum := !sum + fd);
         ignore (Sys.opaque_identity !sum)))

let hashtbl_snapshot_iterate n =
  Test.make ~name:(Printf.sprintf "hashtbl fold+sort iterate (%d)" n)
    (let h = Hashtbl.create 64 in
     for fd = 0 to n - 1 do
       Hashtbl.replace h fd fd
     done;
     Staged.stage (fun () ->
         let fds = List.sort compare (Hashtbl.fold (fun fd _ acc -> fd :: acc) h []) in
         let sum = ref 0 in
         List.iter (fun fd -> sum := !sum + fd) fds;
         ignore (Sys.opaque_identity !sum)))

let fd_map_tests =
  Test.make_grouped ~name:"fd-map"
    (List.concat_map
       (fun n -> [ fd_map_iterate n; hashtbl_snapshot_iterate n ])
       [ 10; 100; 1000 ])

(* The compact arena vs the record constellation it replaced: a
   pre-arena socket was ~a dozen heap blocks (two Sock_bufs, payload
   buffer, wait queue, accept queue, closure lists); an arena socket
   is one small immutable handle over the shared columns. The
   minor-words-per-op column is the interesting one here — it is what
   lets the idle-scaling figure hold 1M connections in host memory. *)
type baseline_conn = {
  mutable b_state : int;
  b_rcv : Sock_buf.t;
  b_snd : Sock_buf.t;
  b_payload : Stdlib.Buffer.t;
  b_waiters : Socket.waiter Wait_queue.t;
  b_accept_q : int Queue.t;
  mutable b_observers : (unit -> unit) list;
  mutable b_watchers : (unit -> unit) list;
}

let baseline_conn () =
  {
    b_state = 1;
    b_rcv = Sock_buf.create ~capacity:65536;
    b_snd = Sock_buf.create ~capacity:65536;
    b_payload = Stdlib.Buffer.create 64;
    b_waiters = Wait_queue.create ();
    b_accept_q = Queue.create ();
    b_observers = [];
    b_watchers = [];
  }

let arena_cycle =
  Test.make ~name:"conn create+close (arena)"
    (let engine = Engine.create () in
     let host = Host.create ~engine ~costs:Cost_model.zero () in
     Staged.stage (fun () ->
         let s = Socket.create_established ~host in
         Socket.close s))

let baseline_cycle =
  Test.make ~name:"conn create+drop (record baseline)"
    (Staged.stage (fun () -> ignore (Sys.opaque_identity (baseline_conn ()))))

let arena_idle_block n =
  Test.make ~name:(Printf.sprintf "idle conns x%d (arena)" n)
    (let engine = Engine.create () in
     let host = Host.create ~engine ~costs:Cost_model.zero () in
     Staged.stage (fun () ->
         let socks = Array.init n (fun _ -> Socket.create_established ~host) in
         Array.iter Socket.close socks))

let baseline_idle_block n =
  Test.make ~name:(Printf.sprintf "idle conns x%d (record baseline)" n)
    (Staged.stage (fun () ->
         ignore (Sys.opaque_identity (Array.init n (fun _ -> baseline_conn ())))))

let arena_churn =
  Test.make ~name:"conn churn, 10k live (arena)"
    (let engine = Engine.create () in
     let host = Host.create ~engine ~costs:Cost_model.zero () in
     let ring = Array.init 10_000 (fun _ -> Socket.create_established ~host) in
     let i = ref 0 in
     Staged.stage (fun () ->
         Socket.close ring.(!i);
         ring.(!i) <- Socket.create_established ~host;
         i := (!i + 1) mod Array.length ring))

let arena_tests =
  Test.make_grouped ~name:"arena"
    [
      arena_cycle;
      baseline_cycle;
      arena_idle_block 1000;
      baseline_idle_block 1000;
      arena_churn;
    ]

(* The zero-copy data plane's host-side footprint: reserve-and-drain a
   64 KB send through the plain buffer counter versus through the
   transmit ring's page accounting. Both paths are pure counter
   arithmetic over the arena columns (and, for the ring, the monotone
   mapped/drained positions), so both must stay allocation-free —
   the gated column. The ring variant buys its simulated-cost win
   with a little extra host arithmetic, which is fine; what may not
   regress is a heap block sneaking into the per-send path. *)
let send_copy_64k =
  Test.make ~name:"send 64KB (copy)"
    (let engine = Engine.create () in
     let host = Host.create ~engine ~costs:Cost_model.zero () in
     let s = Socket.create_established ~host in
     Staged.stage (fun () ->
         let n = Socket.write_reserve s 65536 in
         Socket.release_send_space s n))

let send_ring_64k =
  Test.make ~name:"send 64KB (ring)"
    (let engine = Engine.create () in
     let host = Host.create ~engine ~costs:Cost_model.zero () in
     let s = Socket.create_established ~host in
     assert (Socket.ring_attach s ~slot_bytes:4096);
     Staged.stage (fun () ->
         match Socket.ring_reserve s 65536 ~copy_bytes:0 with
         | Some (n, _pages) -> Socket.release_send_space s n
         | None -> assert false))

let data_plane_tests =
  Test.make_grouped ~name:"data-plane" [ send_copy_64k; send_ring_64k ]

(* The cluster control plane's host-side footprint: steering an
   arrival schedule across shards (the hash policy's stateless mix,
   the least-loaded balancer's heap walk) and folding per-shard server
   stats back into one record. All pure pre-/post-passes around the
   shard simulations — what must stay cheap is the per-connection
   decision and the per-point merge. *)
let steer_schedule = Array.init 1000 (fun i -> Sio_sim.Time.ms i)

let steer_hash =
  Test.make ~name:"steer 1k conns (hash)"
    (Staged.stage (fun () ->
         ignore
           (Sio_httpd.Shard_cluster.route ~policy:Sio_httpd.Shard_cluster.Hash_tuple
              ~shards:8 ~seed:42 steer_schedule)))

let steer_least_loaded =
  Test.make ~name:"steer 1k conns (least-loaded)"
    (Staged.stage (fun () ->
         ignore
           (Sio_httpd.Shard_cluster.route
              ~policy:Sio_httpd.Shard_cluster.Least_loaded ~shards:8 ~seed:42
              steer_schedule)))

let stats_merge =
  Test.make ~name:"stats merge (8 shards)"
    (let shard_stats =
       List.init 8 (fun s ->
           let st = Sio_httpd.Server_stats.create () in
           for i = 0 to 99 do
             Sio_httpd.Server_stats.record_reply st
               ~now:(Sio_sim.Time.ms ((s * 7) + (i * 10)))
           done;
           st)
     in
     Staged.stage (fun () -> ignore (Sio_httpd.Server_stats.merge shard_stats)))

let shard_tests =
  Test.make_grouped ~name:"shard" [ steer_hash; steer_least_loaded; stats_merge ]

let tests =
  Test.make_grouped ~name:"micro"
    [
      heap_push_pop;
      event_queue_cycle;
      interest_set_replace;
      interest_find;
      poll_scan 100;
      poll_scan 1000;
      devpoll_scan 100;
      devpoll_scan 1000;
      rt_enqueue_dequeue;
      histogram_add;
      fd_map_tests;
      ready_set_tests;
      request_tests;
      arena_tests;
      data_plane_tests;
      shard_tests;
    ]

(* Machine-readable mirror of the printed table, for commit alongside
   the repo (BENCH_micro.json) and the README perf note. Each row
   carries host wall time and minor-heap allocation per operation; the
   latter is what `make bench-check` gates for the arena and fd-map
   groups (allocation is near-deterministic, so a regression there is
   a structural change, not noise). *)
let write_json path rows =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"units\": [\"ns/op\", \"minor words/op\"],\n  \"results\": [\n";
  let num = function
    | Some v -> Printf.sprintf "%.1f" v
    | None -> "null"
  in
  let last = List.length rows - 1 in
  List.iteri
    (fun i (name, ns, words) ->
      Printf.fprintf oc
        "    {\"name\": %S, \"ns_per_op\": %s, \"minor_words_per_op\": %s}%s\n"
        name (num ns) (num words)
        (if i = last then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let run ?json_out ppf =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let clock = Instance.monotonic_clock in
  let alloc = Instance.minor_allocated in
  let instances = [ clock; alloc ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second 0.25) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  let estimate r =
    match Analyze.OLS.estimates r with
    | Some (est :: _) -> Some est
    | Some [] | None -> None
  in
  (* Host-side report; rows of each measure table are sorted before
     anything observes their order. *)
  let measure_rows witness =
    match Hashtbl.find_opt merged (Measure.label witness) with
    | None -> []
    | Some tbl ->
        List.sort
          (fun (a, _) (b, _) -> compare (a : string) b)
          (Hashtbl.fold (fun name r acc -> (name, estimate r) :: acc) tbl [])
  in
  let ns_rows = measure_rows clock in
  let word_rows = measure_rows alloc in
  let rows =
    List.map
      (fun (name, ns) ->
        (name, ns, Option.join (List.assoc_opt name word_rows)))
      ns_rows
  in
  Fmt.pf ppf
    "== Microbenchmarks (host wall time / minor words per operation) ==@.";
  let cell = function
    | Some v -> Printf.sprintf "%10.1f" v
    | None -> Printf.sprintf "%10s" "n/a"
  in
  List.iter
    (fun (name, ns, words) ->
      Fmt.pf ppf "%-48s %s ns/op %s w/op@." name (cell ns) (cell words))
    rows;
  (match json_out with
  | Some path ->
      write_json path rows;
      Fmt.pf ppf "wrote %s@." path
  | None -> ());
  Fmt.pf ppf "@."
