open Sio_sim

type t = {
  engine : Engine.t;
  bandwidth : int; (* bits per second *)
  latency : Time.t;
  mutable busy_until : Time.t;
  mutable bytes_sent : int;
  mutable busy_time : Time.t; (* accumulated serialization time *)
}

let create ~engine ~bandwidth_bits_per_sec ~latency =
  if bandwidth_bits_per_sec <= 0 then invalid_arg "Link.create: bandwidth must be positive";
  if Time.is_negative latency then invalid_arg "Link.create: negative latency";
  {
    engine;
    bandwidth = bandwidth_bits_per_sec;
    latency;
    busy_until = Time.zero;
    bytes_sent = 0;
    busy_time = Time.zero;
  }

let serialization_time t ~bytes_len =
  (* bits * 1e9 / bandwidth, computed without overflow for any message
     smaller than ~1 GB. *)
  let bits = bytes_len * 8 in
  Time.ns (int_of_float (float_of_int bits *. 1e9 /. float_of_int t.bandwidth))

let transmit t ~extra_latency ~bytes_len k =
  if bytes_len < 0 then invalid_arg "Link.transmit: negative length";
  let now = Engine.now t.engine in
  let wire = serialization_time t ~bytes_len in
  let depart = Time.add (Time.max now t.busy_until) wire in
  t.busy_until <- depart;
  t.bytes_sent <- t.bytes_sent + bytes_len;
  t.busy_time <- Time.add t.busy_time wire;
  let arrive = Time.add depart (Time.add t.latency extra_latency) in
  ignore (Engine.at t.engine arrive k)

let busy_until t = t.busy_until
let bytes_sent t = t.bytes_sent

let utilization t ~now =
  if now <= Time.zero then 0.
  else Time.to_sec_f t.busy_time /. Time.to_sec_f now
