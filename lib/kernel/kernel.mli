(** The syscall layer.

    Servers talk to the simulated kernel exclusively through this
    module. Calls return their results synchronously (the simulation
    knows the answer immediately) while their CPU costs are charged to
    the host's single CPU, pushing its completion horizon forward;
    server loops schedule their next step at that horizon via
    {!Host.charge_run}. Blocking calls ({!poll}, {!devpoll_wait},
    {!sigwaitinfo}, {!sigtimedwait4}) take continuations instead. *)

open Sio_sim

type read_result =
  | Data  (** bytes were read into the caller's {!read_buf} *)
  | Eof  (** orderly shutdown by the peer *)
  | Eagain  (** nothing buffered *)
  | Econnreset

type read_buf = { mutable text : string; mutable bytes : int }
(** The user-space buffer {!read} fills, owned by the caller and reused
    across reads (as read(2)'s buffer is), so a read allocates
    nothing. After a [Data] result it holds the payload text and the
    byte count of that read. *)

val read_buf : unit -> read_buf

type 'a syscall_result = ('a, [ `Ebadf | `Emfile | `Eagain | `Einval ]) result

type write_error = [ `Ebadf | `Emfile | `Eagain | `Einval | `Econnreset ]
(** Send-path errors: the plain {!type-syscall_result} set plus
    [`Econnreset] for a send attempted after the peer reset the
    connection (previously indistinguishable from a full buffer's
    0-byte short write). *)

(** {1 Socket calls} *)

val listen : Process.t -> backlog:int -> int syscall_result
(** socket() + bind() + listen(): a listening descriptor. *)

val accept :
  Process.t -> int -> (int, [ `Ebadf | `Emfile | `Eagain | `Einval | `Enobufs ]) result
(** The new connection's descriptor ({!Process.lookup_socket} gives its
    socket). [`Eagain] when the accept queue is empty; [`Emfile] when the
    process is out of descriptors; [`Enobufs] when the host's modeled
    kernel-memory budget ({!Host.t.mem_limit}) cannot fit another
    connection. In both drop cases the connection is reset and its
    arena slot reclaimed, as the real kernel does. *)

val read : Process.t -> int -> into:read_buf -> read_result syscall_result
(** On [Data], [into] holds the text and byte count read. *)

val write : Process.t -> int -> bytes_len:int -> (int, write_error) result
(** Returns bytes accepted into the send buffer (possibly short; 0
    when full — the caller should wait for POLLOUT). *)

val sendfile : Process.t -> int -> bytes_len:int -> (int, write_error) result
(** Like {!write} but through the zero-copy path: the payload moves
    once inside the kernel instead of crossing the user boundary
    twice. The paper's Section 6 flags sendfile() as the natural
    companion to the new event models. *)

val ring_attach :
  Process.t ->
  int ->
  slot_bytes:int ->
  (unit, [ `Ebadf | `Einval | `Enobufs | `Econnreset ]) result
(** Attaches a shared transmit ring ({!Zc_ring}) to the connection,
    charging the one-time {!Cost_model.t.mmap_setup} cost. The ring is
    sized to the socket's send-buffer capacity and its slots are
    reserved against the host's memory budget; [`Enobufs] when that
    budget refuses. Idempotent on an already-attached socket (the
    setup cost is charged again — the caller is expected to attach
    once per connection). *)

val ring_send :
  Process.t -> int -> bytes_len:int -> copy_bytes:int -> (int, write_error) result
(** Like {!write}, but payload beyond the first [copy_bytes] is pinned
    into the attached ring and charged per freshly occupied page
    ({!Cost_model.t.page_map_ns}) instead of per byte; the first
    [copy_bytes] (selective mode's headers) still pay
    {!Cost_model.t.copy_per_byte_ns}. [`Einval] when no ring is
    attached or [copy_bytes] is out of range. Pure zero-copy is
    [~copy_bytes:0]. *)

val close : Process.t -> int -> unit syscall_result

val fcntl_setsig : Process.t -> int -> signo:int -> unit syscall_result
(** Routes the descriptor's I/O completion events to the process's RT
    signal queue. [signo] must be at least {!Rt_signal.sigrtmin}. *)

val fcntl_clearsig : Process.t -> int -> unit syscall_result

(** {1 poll()} *)

val poll :
  Process.t ->
  interests:(int * Pollmask.t) list ->
  timeout:Time.t option ->
  k:(Poll.result list -> unit) ->
  unit

(** {1 /dev/poll} *)

val devpoll_open : Process.t -> int syscall_result
val devpoll_write : Process.t -> int -> (int * Pollmask.t) list -> unit syscall_result
val devpoll_alloc_map : Process.t -> int -> slots:int -> unit syscall_result

val devpoll_wait :
  Process.t ->
  int ->
  max_results:int ->
  timeout:Time.t option ->
  k:(Poll.result Ready_buffer.t -> unit) ->
  (unit, [ `Ebadf ]) result

(** {1 RT signals} *)

val sigwaitinfo : Process.t -> k:(Rt_signal.delivery -> unit) -> unit

val sigtimedwait4 :
  Process.t ->
  max:int ->
  timeout:Time.t option ->
  k:(Rt_signal.delivery list -> unit) ->
  unit

val flush_signals : Process.t -> int

(** {1 User-space work} *)

val compute : Process.t -> Time.t -> unit
(** Charges application CPU time (request parsing, response
    formatting) to the host CPU. *)

val yield : Process.t -> (unit -> unit) -> unit
(** Schedules [k] at the CPU's current completion horizon: the point
    where all work charged so far has finished. *)
