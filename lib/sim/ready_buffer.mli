(** Reusable growable result buffer for scan hot paths.

    Replaces the per-call [cons ... |> List.rev] accumulation pattern
    in readiness scans: the owner keeps one buffer alive, [clear]s it
    at the top of each scan, [push]es results in encounter order, and
    reads them back in that same order. Steady-state scans allocate
    nothing (the backing array is retained across calls); [length] is
    an O(1) field read, not a list traversal.

    Not thread-safe; one buffer per owner. [clear] resets the logical
    length only — slots keep their last values until overwritten, so
    buffers should hold small immutable records, not resources. *)

type 'a t

val create : ?initial_capacity:int -> unit -> 'a t
(** [initial_capacity] (default 16) pre-sizes the first allocation of
    the backing array. *)

val length : 'a t -> int
(** Elements pushed since the last {!clear}, O(1). *)

val is_empty : 'a t -> bool

val clear : 'a t -> unit
(** Reset to empty, retaining the backing array for reuse. O(1). *)

val push : 'a t -> 'a -> unit
(** Append, amortized O(1) (growth doubles the backing array). *)

val get : 'a t -> int -> 'a
(** [get b i] is the [i]th pushed element. Raises [Invalid_argument]
    when [i] is out of bounds. *)

val iter : 'a t -> ('a -> unit) -> unit
(** Apply to every element in push order. *)

val fold : 'a t -> init:'acc -> f:('acc -> 'a -> 'acc) -> 'acc
(** Fold in push order. *)

val to_list : 'a t -> 'a list
(** Elements in push order, freshly allocated — the bridge to
    list-shaped APIs at module boundaries. *)

(** {1 Lending buffers across continuations}

    A wait that hands its results to a continuation lends the buffer
    for as long as the continuation runs. A pool gives each wait its
    own buffer: a wait started inside another wait's continuation
    (a nested wait) gets a second buffer, so the outer batch stays
    intact. In steady state every buffer comes back and nothing is
    allocated. *)

type 'a pool

val pool : unit -> 'a pool

val acquire : 'a pool -> 'a t
(** A cleared buffer no one else holds: a returned one if any, else a
    fresh one. *)

val release : 'a pool -> 'a t -> unit
(** Return a buffer acquired from this pool. Its holder must not read
    it afterwards. *)
