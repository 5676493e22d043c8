(** The paper's /dev/poll character device.

    One value of type [t] corresponds to one open of /dev/poll: an
    interest set kept in the kernel ({!Interest_table}), maintained
    incrementally with {!write}, and queried with {!dp_poll}
    (ioctl(DP_POLL)). The three optimizations of the paper's Section 3
    are all here:

    - {e state in the kernel}: only changes cross the user/kernel
      boundary, so a DP_POLL never pays per-interest copy-in;
    - {e device driver hints}: sockets whose drivers support hinting
      post status-change bits into the interest's hint field through a
      backmap subscription; a scan consults the hint and a cached
      driver result before paying for a driver callback. A cached
      "ready" result is always revalidated (hints do not report
      ready-to-not-ready transitions); a cached "not ready" result
      with no hint is trusted.
    - {e shared result mapping}: after {!alloc_result_map}
      (ioctl(DP_ALLOC) + mmap()), results are deposited in the shared
      area and the per-ready copy-out cost disappears.

    A process may open /dev/poll several times for independent
    interest sets. *)

open Sio_sim

type t

val create : host:Host.t -> lookup:(int -> Socket.t option) -> t
(** [lookup] resolves fds against the owning process's descriptor
    table at scan time, so descriptor reuse behaves as it would in the
    kernel (the interest silently applies to the new file). *)

val write : t -> (int * Pollmask.t) list -> unit
(** write(2) on /dev/poll: a list of pollfd entries. An entry whose
    events contain [POLLREMOVE] deletes the interest; otherwise the
    entry adds or replaces (Linux semantics; see
    {!Interest_table.set}). Charges syscall entry plus a per-change
    cost and the backmap write lock. *)

val alloc_result_map : t -> slots:int -> unit
(** ioctl(DP_ALLOC) followed by mmap(): subsequent polls report
    through the shared mapping. Raises [Invalid_argument] if [slots]
    is not positive or a mapping already exists. *)

val release_result_map : t -> unit
(** munmap(): back to copy-out reporting. *)

val has_result_map : t -> bool

val dp_poll :
  t ->
  max_results:int ->
  timeout:Time.t option ->
  k:(Poll.result Ready_buffer.t -> unit) ->
  unit
(** ioctl(DP_POLL): scan the interest set and return up to
    [max_results] ready descriptors; sleep when none are ready
    ([timeout] as in {!Poll.wait}). The results arrive in a buffer the
    instance lends to [k]: valid until [k] returns, and a DP_POLL
    issued inside [k] gets a buffer of its own. *)

val interest_count : t -> int
val find_interest : t -> int -> Interest_table.interest option

val active_count : t -> int
(** Size of the incremental ready set: interests not currently
    idle-certified. Everything else is charged analytically by scans
    (host cost O(active), identical charged nanoseconds). *)

val active_fds : t -> int list
(** The non-idle-certified fds in ascending order; test hook for the
    churn equivalence property. *)

val close : t -> unit
(** Releases the interest set and all backmap subscriptions. *)

val is_closed : t -> bool
