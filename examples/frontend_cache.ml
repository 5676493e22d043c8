(* A static-content caching front end for a full-service web server —
   which is what phhttpd actually was ("a static-content caching front
   end for full-service web servers such as Apache", paper Section 2).

   Topology: clients -> [front end, event-loop cache] -> [backend,
   thttpd serving a slow dynamic document store]. The front end is
   written against the public Scalanio.Event_loop API; cache hits are
   served in microseconds, misses pay a full round trip to the slow
   backend. A Zipf-ish request mix shows the cache absorbing the bulk
   of the load.

     dune exec examples/frontend_cache.exe
*)

open Scalanio

(* Written once here, read-only afterwards. The interprocedural
   module-state rule proves no Domain_pool-reachable code writes this
   table, so it no longer needs a suppression. *)
let paths =
  Array.init 20 (fun i -> Printf.sprintf "/doc-%02d.html" i)

let () =
  let engine = Engine.create ~seed:99 () in

  (* ---- Backend: a slow full-service server on its own host ---- *)
  let backend_host = Host.create ~engine () in
  let backend_proc = Process.create ~host:backend_host ~name:"apache" () in
  let backend_fs = Fs.create ~host:backend_host () in
  Array.iter (fun p -> Fs.add_file backend_fs ~path:p ~bytes:6144) paths;
  let backend_conn_config =
    {
      Sio_httpd.Conn.default_config with
      Sio_httpd.Conn.fs = Some backend_fs;
      (* "Full service": each request burns 5 ms of backend CPU. *)
      respond_cost = Time.ms 5;
    }
  in
  let backend =
    let b =
      match Backend.devpoll backend_proc with
      | Ok b -> b
      | Error `Emfile -> failwith "backend devpoll failed"
    in
    match
      Thttpd.start ~proc:backend_proc ~backend:b
        ~config:{ Thttpd.default_config with Thttpd.conn = backend_conn_config }
        ()
    with
    | Ok t -> t
    | Error `Emfile -> failwith "backend start failed"
  in
  let backend_net = Network.create ~engine () in

  (* ---- Front end: an Event_loop cache on its own host ---- *)
  let fe_host = Host.create ~engine () in
  let fe_proc = Process.create ~host:fe_host ~name:"frontend" () in
  let fe_listen =
    match Kernel.listen fe_proc ~backlog:128 with
    | Ok fd -> fd
    | Error _ -> failwith "frontend listen failed"
  in
  let fe_listener =
    match Process.lookup_socket fe_proc fe_listen with Some s -> s | None -> assert false
  in
  let loop =
    match Event_loop.create ~proc:fe_proc ~backend:Event_loop.default_devpoll with
    | Ok l -> l
    | Error `Emfile -> failwith "frontend loop failed"
  in
  let cache : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let hits = ref 0 and misses = ref 0 in

  let respond fd body_bytes =
    ignore (Kernel.write fe_proc fd ~bytes_len:(Http.response_bytes ~body_bytes));
    Event_loop.unwatch loop fd;
    ignore (Kernel.close fe_proc fd)
  in
  let fetch_from_backend path k =
    let expected = Http.response_bytes ~body_bytes:6144 in
    let received = ref 0 in
    let request = Http.build_request ~path in
    let handlers =
      {
        Tcp.null_handlers with
        Tcp.on_established =
          (fun c -> Tcp.client_send c ~bytes_len:(String.length request) ~payload:request);
        on_bytes =
          (fun c n ->
            received := !received + n;
            if !received >= expected then begin
              Tcp.client_close c;
              k 6144
            end);
      }
    in
    ignore
      (Tcp.connect ~net:backend_net ~listener:(Thttpd.listener backend) ~handlers ())
  in
  let rbuf = Kernel.read_buf () in
  let on_client fd mask =
    if Pollmask.intersects mask Pollmask.readable then
      match Kernel.read fe_proc fd ~into:rbuf with
      | Ok Kernel.Data when Http.is_complete rbuf.Kernel.text -> (
          match Http.parse_request rbuf.Kernel.text with
          | Ok { Http.path; _ } -> (
              Kernel.compute fe_proc (Time.us 60) (* parse + cache probe *);
              match Hashtbl.find_opt cache path with
              | Some body ->
                  incr hits;
                  respond fd body
              | None ->
                  incr misses;
                  fetch_from_backend path (fun body ->
                      Hashtbl.replace cache path body;
                      respond fd body))
          | Error _ ->
              Event_loop.unwatch loop fd;
              ignore (Kernel.close fe_proc fd))
      | Ok (Kernel.Eof | Kernel.Econnreset) ->
          Event_loop.unwatch loop fd;
          ignore (Kernel.close fe_proc fd)
      | Ok _ | Error _ -> ()
  in
  Event_loop.watch loop ~fd:fe_listen ~events:Pollmask.pollin (fun _ ->
      let rec accept_all () =
        match Kernel.accept fe_proc fe_listen with
        | Ok fd ->
            Event_loop.watch loop ~fd ~events:Pollmask.pollin (on_client fd);
            accept_all ()
        | Error _ -> ()
      in
      accept_all ());
  Event_loop.run loop;

  (* ---- Clients: 2000 requests, Zipf-skewed across 20 documents ---- *)
  let client_net = Network.create ~engine () in
  let rng = Rng.split (Engine.rng engine) in
  let completed = ref 0 and latency = Histogram.create () in
  let zipf_pick () =
    (* crude Zipf: rank r with probability ~ 1/(r+1) *)
    let u = Rng.float rng 3.0 in
    let rank = int_of_float (Float.round (exp u)) - 1 in
    paths.(Stdlib.min (Array.length paths - 1) rank)
  in
  let request_one i =
    ignore
      (Engine.at engine (Time.ms (i * 2)) (fun () ->
           let path = zipf_pick () in
           let started = Engine.now engine in
           let expected = Http.response_bytes ~body_bytes:6144 in
           let received = ref 0 in
           let request = Http.build_request ~path in
           let handlers =
             {
               Tcp.null_handlers with
               Tcp.on_established =
                 (fun c ->
                   Tcp.client_send c ~bytes_len:(String.length request) ~payload:request);
               on_bytes =
                 (fun c n ->
                   received := !received + n;
                   if !received >= expected then begin
                     incr completed;
                     Histogram.add latency (Time.sub (Engine.now engine) started);
                     Tcp.client_close c
                   end);
             }
           in
           ignore (Tcp.connect ~net:client_net ~listener:fe_listener ~handlers ())))
  in
  for i = 0 to 1999 do
    request_one i
  done;
  Engine.run ~until:(Time.s 20) engine;
  Event_loop.stop loop;
  Thttpd.stop backend;

  Fmt.pr "frontend cache demo: %d/2000 requests served@." !completed;
  Fmt.pr "cache: %d hits, %d misses (%.1f%% hit rate, %d documents cached)@." !hits
    !misses
    (100. *. float_of_int !hits /. float_of_int (Stdlib.max 1 (!hits + !misses)))
    (Hashtbl.length cache);
  Fmt.pr "client latency: median %a, p99 %a@." Time.pp (Histogram.median latency)
    Time.pp (Histogram.percentile latency 99.);
  Fmt.pr "backend saw %d requests instead of 2000@."
    (Thttpd.stats backend).Sio_httpd.Server_stats.replies
