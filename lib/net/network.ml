open Sio_sim

type t = { up : Link.t; down : Link.t; latency : Time.t }

let create ~engine ?(bandwidth_bits_per_sec = 100_000_000) ?(latency = Time.us 100) () =
  let mk () = Link.create ~engine ~bandwidth_bits_per_sec ~latency in
  { up = mk (); down = mk (); latency }

let client_to_server t = t.up
let server_to_client t = t.down

let send_to_server t ~extra_latency ~bytes_len k =
  Link.transmit t.up ~extra_latency ~bytes_len k

let send_to_client t ~extra_latency ~bytes_len k =
  Link.transmit t.down ~extra_latency ~bytes_len k

let rtt t = Time.mul t.latency 2
