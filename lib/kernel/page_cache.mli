(** A page cache with LRU eviction.

    Keyed by (file id, page index). The static-content servers of the
    paper live or die by this cache: the benchmark's single 6 KB
    document stays resident, which is why the simulated disk never
    shows up in the figures — but the filesystem substrate supports
    larger-than-cache working sets for the document-size experiments. *)

type t

val create : capacity_pages:int -> t
(** Raises [Invalid_argument] if the capacity is not positive. *)

val capacity : t -> int
val resident : t -> int

val touch : t -> file_id:int -> page:int -> [ `Hit | `Miss ]
(** Looks the page up; on a miss it is brought in (evicting the least
    recently used page if full). Either way the page becomes most
    recently used. Allocation-free on a hit. Page indices must fit in
    32 bits. *)

val contains : t -> file_id:int -> page:int -> bool
(** Pure lookup without promotion; for tests. *)

val hits : t -> int
val misses : t -> int

val invalidate_file : t -> file_id:int -> int
(** Drops every resident page of one file; returns how many. *)
