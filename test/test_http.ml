open Sio_httpd

let test_build_request () =
  let r = Http.build_request ~path:"/index.html" in
  Alcotest.(check bool) "starts with GET" true (String.length r > 4 && String.sub r 0 4 = "GET ");
  Alcotest.(check bool) "CRLFCRLF terminated" true
    (String.sub r (String.length r - 4) 4 = "\r\n\r\n");
  Alcotest.(check int) "request_bytes consistent" (String.length r)
    (Http.request_bytes ~path:"/index.html")

let test_is_complete () =
  let r = Http.build_request ~path:"/" in
  Alcotest.(check bool) "full request complete" true (Http.is_complete r);
  Alcotest.(check bool) "prefix incomplete" false
    (Http.is_complete (String.sub r 0 (String.length r / 2)));
  Alcotest.(check bool) "empty incomplete" false (Http.is_complete "")

let test_parse_request () =
  let r = Http.build_request ~path:"/doc.html" in
  match Http.parse_request r with
  | Ok { meth; path } ->
      Alcotest.(check string) "method" "GET" meth;
      Alcotest.(check string) "path" "/doc.html" path
  | Error _ -> Alcotest.fail "parse failed"

let test_parse_incomplete () =
  match Http.parse_request "GET / HT" with
  | Error `Incomplete -> ()
  | Ok _ | Error `Malformed -> Alcotest.fail "expected Incomplete"

let test_parse_malformed () =
  match Http.parse_request "NONSENSE\r\n\r\n" with
  | Error `Malformed -> ()
  | Ok _ | Error `Incomplete -> Alcotest.fail "expected Malformed"

let test_response_sizes () =
  let body = 6144 in
  let head = Http.response_head_bytes ~body_bytes:body in
  Alcotest.(check bool) "plausible header size" true (head > 50 && head < 200);
  Alcotest.(check int) "total" (head + body) (Http.response_bytes ~body_bytes:body);
  Alcotest.(check int) "paper document" 6144 Http.default_document_bytes

let prop_roundtrip =
  QCheck.Test.make ~name:"build/parse roundtrip on sane paths" ~count:200
    QCheck.(string_gen_of_size (Gen.int_range 1 30) (Gen.char_range 'a' 'z'))
    (fun name ->
      let path = "/" ^ name in
      match Http.parse_request (Http.build_request ~path) with
      | Ok { meth; path = p } -> meth = "GET" && p = path
      | Error _ -> false)

(* The String.sub-per-offset implementation the in-place scanner
   replaced, kept as the oracle for it. *)
module Reference = struct
  let terminator = "\r\n\r\n"

  let is_complete s =
    let n = String.length s and m = String.length terminator in
    let rec at i =
      if i + m > n then false
      else if String.sub s i m = terminator then true
      else at (i + 1)
    in
    at 0

  let parse_request s =
    if not (is_complete s) then Error `Incomplete
    else
      match String.index_opt s '\r' with
      | None -> Error `Malformed
      | Some eol -> (
          let line = String.sub s 0 eol in
          match String.split_on_char ' ' line with
          | [ meth; path; version ]
            when String.length version >= 5 && String.sub version 0 5 = "HTTP/" ->
              Ok { Http.meth; path }
          | _ -> Error `Malformed)

  let response_head_bytes ~body_bytes =
    String.length
      (Printf.sprintf
         "HTTP/1.0 200 OK\r\nServer: thttpd-sim\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n"
         body_bytes)
end

(* Request-ish noise: the characters the parser branches on. *)
let noise =
  QCheck.Gen.(
    string_size (int_range 0 40)
      ~gen:(oneofl [ '\r'; '\n'; ' '; 'G'; 'E'; 'T'; 'H'; 'P'; '/'; '1'; '.'; 'x' ]))

let request_gen =
  QCheck.Gen.(
    let* body = noise in
    let* line =
      oneofl [ "GET / HTTP/1.0"; "GET /a HTTP/1.1"; "GET  HTTP/1.0"; "GET /a HTTP"; "A B C D" ]
    in
    let* mode = int_range 0 3 in
    let* cut = int_range 0 (String.length body) in
    let text =
      match mode with
      | 0 -> "\r\n\r\n" ^ body (* terminator at offset 0 *)
      | 1 -> line ^ body ^ "\r\n\r\n" (* at the end *)
      | 2 -> String.map (fun c -> if c = '\r' then 'x' else c) (line ^ body) (* absent *)
      | _ -> line ^ "\r\n" ^ String.sub body 0 cut ^ "\r\n\r\n" ^ body
    in
    let* split = int_range 0 (String.length text) in
    return (text, split))

let same_parse a b =
  match (a, b) with
  | Ok { Http.meth; path }, Ok { Http.meth = m'; path = p' } -> meth = m' && path = p'
  | Error `Incomplete, Error `Incomplete | Error `Malformed, Error `Malformed -> true
  | _ -> false

(* The in-place scanner and parser agree with the reference on the
   whole text and on its first segment, and a request delivered in two
   segments is read back as the same text. *)
let prop_in_place_matches_reference =
  QCheck.Test.make ~name:"in-place is_complete/parse_request match the String.sub reference"
    ~count:500
    (QCheck.make ~print:(fun (s, k) -> Printf.sprintf "%S split at %d" s k) request_gen)
    (fun (text, split) ->
      let first = String.sub text 0 split in
      let second = String.sub text split (String.length text - split) in
      let engine = Helpers.mk_engine () in
      let sock = Sio_kernel.Socket.create_established ~host:(Helpers.mk_host engine) in
      ignore (Sio_kernel.Socket.deliver sock ~bytes_len:(String.length first) ~payload:first);
      ignore (Sio_kernel.Socket.deliver sock ~bytes_len:(String.length second) ~payload:second);
      let read = Sio_kernel.Socket.take_payload sock in
      read = text
      && Http.is_complete first = Reference.is_complete first
      && Http.is_complete read = Reference.is_complete text
      && same_parse (Http.parse_request first) (Reference.parse_request first)
      && same_parse (Http.parse_request read) (Reference.parse_request text))

let test_response_bytes_match_printf () =
  List.iter
    (fun body_bytes ->
      Alcotest.(check int)
        (Printf.sprintf "head for %d-byte body" body_bytes)
        (Reference.response_head_bytes ~body_bytes)
        (Http.response_head_bytes ~body_bytes);
      Alcotest.(check int)
        (Printf.sprintf "total for %d-byte body" body_bytes)
        (Reference.response_head_bytes ~body_bytes + body_bytes)
        (Http.response_bytes ~body_bytes))
    [ 0; 9; 10; 6144; 1_000_000 ]

let test_hot_calls_allocate_nothing () =
  let request = Http.build_request ~path:"/index.html" in
  let partial = String.sub request 0 (String.length request - 1) in
  let n = 10_000 in
  let check name f =
    let words = Helpers.minor_words_of n f in
    if words > 16. then
      Alcotest.failf "%s allocated %.0f minor words over %d calls" name words n
  in
  check "is_complete (complete)" (fun () -> Http.is_complete request);
  check "is_complete (partial)" (fun () -> Http.is_complete partial);
  check "response_bytes" (fun () -> Http.response_bytes ~body_bytes:6144);
  check "response_head_bytes" (fun () -> Http.response_head_bytes ~body_bytes:1_000_000)

let suite =
  [
    Alcotest.test_case "build_request" `Quick test_build_request;
    Alcotest.test_case "is_complete" `Quick test_is_complete;
    Alcotest.test_case "parse_request" `Quick test_parse_request;
    Alcotest.test_case "parse incomplete" `Quick test_parse_incomplete;
    Alcotest.test_case "parse malformed" `Quick test_parse_malformed;
    Alcotest.test_case "response sizes" `Quick test_response_sizes;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_in_place_matches_reference;
    Alcotest.test_case "response_bytes matches the Printf length" `Quick
      test_response_bytes_match_printf;
    Alcotest.test_case "is_complete and response_bytes allocate nothing" `Quick
      test_hot_calls_allocate_nothing;
  ]
