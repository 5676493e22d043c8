(* Quickstart: a tiny echo server on the Scalanio event loop.

   Shows the full lifecycle in ~60 lines: build a simulated world,
   start a server process with a /dev/poll-backed event loop, connect
   a client through the network, and watch request text echo back.

     dune exec examples/quickstart.exe
*)

open Scalanio

let () =
  (* 1. A world: engine (simulated time), a server host with a CPU and
     kernel, and a network between client and server. *)
  let engine = Engine.create ~seed:7 () in
  let host = Host.create ~engine () in
  let net = Network.create ~engine () in
  let proc = Process.create ~host ~name:"echod" () in

  (* 2. A listening socket and an event loop over /dev/poll. *)
  let listen_fd =
    match Kernel.listen proc ~backlog:16 with
    | Ok fd -> fd
    | Error _ -> failwith "listen failed"
  in
  let listener =
    match Process.lookup_socket proc listen_fd with
    | Some s -> s
    | None -> assert false
  in
  let loop =
    match Event_loop.create ~proc ~backend:Event_loop.default_devpoll with
    | Ok l -> l
    | Error `Emfile -> failwith "out of descriptors"
  in

  (* 3. Server logic: accept, then echo whatever arrives. *)
  let rbuf = Kernel.read_buf () in
  let on_client fd mask =
    if Pollmask.intersects mask Pollmask.readable then
      match Kernel.read proc fd ~into:rbuf with
      | Ok Kernel.Data ->
          Fmt.pr "[%a] server: read %S (%d bytes), echoing@." Time.pp
            (Engine.now engine) rbuf.Kernel.text rbuf.Kernel.bytes;
          ignore (Kernel.write proc fd ~bytes_len:rbuf.Kernel.bytes)
      | Ok Kernel.Eof | Ok Kernel.Econnreset ->
          Fmt.pr "[%a] server: client went away, closing@." Time.pp (Engine.now engine);
          Event_loop.unwatch loop fd;
          ignore (Kernel.close proc fd)
      | Ok Kernel.Eagain | Error _ -> ()
  in
  Event_loop.watch loop ~fd:listen_fd ~events:Pollmask.pollin (fun _ ->
      match Kernel.accept proc listen_fd with
      | Ok fd ->
          Fmt.pr "[%a] server: accepted connection as fd %d@." Time.pp
            (Engine.now engine) fd;
          Event_loop.watch loop ~fd ~events:Pollmask.pollin (on_client fd)
      | Error _ -> ());
  Event_loop.run loop;

  (* 4. A client: connect, say hello, print the echo. *)
  let received = Buffer.create 32 in
  let handlers =
    {
      Tcp.null_handlers with
      Tcp.on_established =
        (fun c ->
          Fmt.pr "[%a] client: connected, sending greeting@." Time.pp (Engine.now engine);
          Tcp.client_send c ~bytes_len:14 ~payload:"hello, kernel!");
      on_bytes =
        (fun c n ->
          Buffer.add_string received (Printf.sprintf "<%d bytes>" n);
          Fmt.pr "[%a] client: got %d echoed bytes, closing@." Time.pp
            (Engine.now engine) n;
          Tcp.client_close c);
    }
  in
  ignore (Tcp.connect ~net ~listener ~handlers ());

  (* 5. Run the simulation to quiescence (the loop's idle timer keeps
     it alive, so bound the run). *)
  Engine.run ~until:(Time.ms 50) engine;
  Event_loop.stop loop;
  Fmt.pr "@.done: client received %s via backend %S@." (Buffer.contents received)
    (Event_loop.backend_name loop)
