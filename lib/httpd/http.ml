type request = { meth : string; path : string }

let build_request ~path =
  Printf.sprintf "GET %s HTTP/1.0\r\nHost: server\r\nUser-Agent: httperf/0.8\r\n\r\n" path

let request_bytes ~path = String.length (build_request ~path)

(* The end-of-headers marker "\r\n\r\n", matched in place: no
   substring is built per offset. This scan and the search in
   [parse_request] are closed local loops (nothing to allocate)
   counting down the offsets left to try. *)
let is_complete s =
  let rec scan s i left =
    left > 0
    && ((s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n')
       || scan s (i + 1) (left - 1))
  in
  scan s 0 (String.length s - 3)

(* One pass over the request line of a complete request: exactly two
   spaces, and a version starting with "HTTP/". Only the method and
   path are copied out. *)
let parse_request s =
  (* First [c] in [i, stop); -1 if none. [left] counts down the
     characters of [s], which bounds the search. *)
  let rec find s c i stop left =
    if left <= 0 || i >= stop then -1
    else if s.[i] = c then i
    else find s c (i + 1) stop (left - 1)
  in
  if not (is_complete s) then Error `Incomplete
  else
    let n = String.length s in
    let eol = find s '\r' 0 n n in
    let sp1 = find s ' ' 0 eol n in
    let sp2 = if sp1 < 0 then -1 else find s ' ' (sp1 + 1) eol n in
    if
      sp2 < 0
      || find s ' ' (sp2 + 1) eol n >= 0
      || eol - (sp2 + 1) < 5
      || not
           (s.[sp2 + 1] = 'H'
           && s.[sp2 + 2] = 'T'
           && s.[sp2 + 3] = 'T'
           && s.[sp2 + 4] = 'P'
           && s.[sp2 + 5] = '/')
    then Error `Malformed
    else Ok { meth = String.sub s 0 sp1; path = String.sub s (sp1 + 1) (sp2 - sp1 - 1) }

(* The response head around the Content-Length digits. *)
let head_prefix =
  "HTTP/1.0 200 OK\r\nServer: thttpd-sim\r\nContent-Type: text/html\r\nContent-Length: "

let head_suffix = "\r\n\r\n"

(* Characters of [n] printed with %d (a 63-bit int has at most 19
   digits). *)
let decimal_width n =
  let rec width n digits left =
    if n < 10 || left = 0 then digits else width (n / 10) (digits + 1) (left - 1)
  in
  if n >= 0 then width n 1 19 else String.length (string_of_int n)

let response_head_bytes ~body_bytes =
  String.length head_prefix + decimal_width body_bytes + String.length head_suffix

let header_bytes = response_head_bytes

let response_bytes ~body_bytes = response_head_bytes ~body_bytes + body_bytes

let default_document_bytes = 6144
