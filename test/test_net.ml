open Sio_sim
open Sio_net

let test_latency_only () =
  let engine = Engine.create () in
  let link =
    Link.create ~engine ~bandwidth_bits_per_sec:100_000_000 ~latency:(Time.us 100)
  in
  let arrived = ref None in
  Link.transmit link ~extra_latency:Time.zero ~bytes_len:0 (fun () -> arrived := Some (Engine.now engine));
  Engine.run engine;
  Alcotest.(check (option int)) "pure latency" (Some (Time.us 100)) !arrived

let test_serialization_time () =
  let engine = Engine.create () in
  let link = Link.create ~engine ~bandwidth_bits_per_sec:100_000_000 ~latency:Time.zero in
  (* 6144 bytes at 100 Mbit/s = 491.52 us *)
  let t = Link.serialization_time link ~bytes_len:6144 in
  Alcotest.(check bool) "about 491us" true (abs (t - 491_520) < 100)

let test_fifo_queueing () =
  let engine = Engine.create () in
  let link = Link.create ~engine ~bandwidth_bits_per_sec:8_000 ~latency:Time.zero in
  (* 8 kbit/s: 1000 bytes take exactly 1 s. *)
  let t1 = ref None and t2 = ref None in
  Link.transmit link ~extra_latency:Time.zero ~bytes_len:1000 (fun () -> t1 := Some (Engine.now engine));
  Link.transmit link ~extra_latency:Time.zero ~bytes_len:1000 (fun () -> t2 := Some (Engine.now engine));
  Engine.run engine;
  Alcotest.(check (option int)) "first at 1s" (Some (Time.s 1)) !t1;
  Alcotest.(check (option int)) "second queues behind" (Some (Time.s 2)) !t2

let test_extra_latency () =
  let engine = Engine.create () in
  let link = Link.create ~engine ~bandwidth_bits_per_sec:100_000_000 ~latency:(Time.ms 1) in
  let at = ref None in
  Link.transmit link ~extra_latency:(Time.ms 120) ~bytes_len:0 (fun () ->
      at := Some (Engine.now engine));
  Engine.run engine;
  Alcotest.(check (option int)) "base+extra" (Some (Time.ms 121)) !at

let test_utilization_and_bytes () =
  let engine = Engine.create () in
  let link = Link.create ~engine ~bandwidth_bits_per_sec:8_000 ~latency:Time.zero in
  Link.transmit link ~extra_latency:Time.zero ~bytes_len:500 (fun () -> ());
  Engine.run engine;
  Alcotest.(check int) "bytes" 500 (Link.bytes_sent link);
  Alcotest.(check (float 1e-6)) "utilization 100% while sending" 1.0
    (Link.utilization link ~now:(Engine.now engine))

let test_validation () =
  let engine = Engine.create () in
  Alcotest.check_raises "bandwidth 0"
    (Invalid_argument "Link.create: bandwidth must be positive") (fun () ->
      ignore (Link.create ~engine ~bandwidth_bits_per_sec:0 ~latency:Time.zero));
  let link = Link.create ~engine ~bandwidth_bits_per_sec:1 ~latency:Time.zero in
  Alcotest.check_raises "negative length"
    (Invalid_argument "Link.transmit: negative length") (fun () ->
      Link.transmit link ~extra_latency:Time.zero ~bytes_len:(-1) (fun () -> ()))

let test_network_directions_independent () =
  let engine = Engine.create () in
  let net = Network.create ~engine ~bandwidth_bits_per_sec:8_000 ~latency:Time.zero () in
  let up = ref None and down = ref None in
  Network.send_to_server net ~extra_latency:Time.zero ~bytes_len:1000 (fun () -> up := Some (Engine.now engine));
  Network.send_to_client net ~extra_latency:Time.zero ~bytes_len:1000 (fun () -> down := Some (Engine.now engine));
  Engine.run engine;
  (* Full duplex: both finish at 1s, no cross-queueing. *)
  Alcotest.(check (option int)) "up" (Some (Time.s 1)) !up;
  Alcotest.(check (option int)) "down" (Some (Time.s 1)) !down

let test_latency_profiles () =
  let rng = Rng.create ~seed:5 in
  Alcotest.(check int) "lan free" Time.zero (Latency_profile.draw Latency_profile.Lan rng);
  let wan = Latency_profile.Wan { base = Time.ms 30; jitter = Time.ms 10 } in
  for _ = 1 to 100 do
    let d = Latency_profile.draw wan rng in
    Alcotest.(check bool) "wan in range" true (d >= Time.ms 30 && d < Time.ms 40)
  done;
  for _ = 1 to 100 do
    let d = Latency_profile.draw Latency_profile.default_modem rng in
    Alcotest.(check bool) "modem at least min" true (d >= Time.ms 120);
    Alcotest.(check bool) "modem capped" true (d <= Time.s 10)
  done

let suite =
  [
    Alcotest.test_case "latency only" `Quick test_latency_only;
    Alcotest.test_case "serialization time" `Quick test_serialization_time;
    Alcotest.test_case "FIFO queueing" `Quick test_fifo_queueing;
    Alcotest.test_case "extra latency" `Quick test_extra_latency;
    Alcotest.test_case "utilization and byte counts" `Quick test_utilization_and_bytes;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "network directions independent" `Quick
      test_network_directions_independent;
    Alcotest.test_case "latency profiles" `Quick test_latency_profiles;
  ]
