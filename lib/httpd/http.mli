(** Minimal HTTP/1.0, enough for the paper's workload: a static GET of
    a 6 KB document, served and closed. Requests are real text so that
    the servers parse something; response bodies are modelled by size
    only. *)

type request = { meth : string; path : string }

val build_request : path:string -> string
(** A complete HTTP/1.0 GET request, terminated by CRLFCRLF. *)

val request_bytes : path:string -> int
(** [String.length (build_request ~path)]. *)

val is_complete : string -> bool
(** True when the buffered text contains the end-of-headers marker.
    Scans in place; allocates nothing. *)

val parse_request : string -> (request, [ `Incomplete | `Malformed ]) result
(** Checks completeness and parses the first request line, in one call:
    a caller holding unparsed text needs nothing else ([`Incomplete]
    means wait for more). Allocates only the result. *)

val response_head_bytes : body_bytes:int -> int
(** Size of the status line plus headers for a [body_bytes] response,
    computed without building the head. *)

val header_bytes : body_bytes:int -> int
(** Alias of {!response_head_bytes}: the prefix of a response that the
    selective zero-copy path copies through the send buffer (headers
    are built in user space per request and are not page-aligned file
    data) while the body is mapped into the transmit ring. *)

val response_bytes : body_bytes:int -> int
(** Total wire size of a 200 response with the given body. *)

val default_document_bytes : int
(** 6144 — the paper's 6 Kbyte index.html from the CITI web site. *)
