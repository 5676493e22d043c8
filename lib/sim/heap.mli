(** Array-based binary min-heap.

    The event queue sits on the hot path of every simulation, so the
    heap is imperative and allocation-light: one growable array, no
    per-element boxing beyond the stored value itself. Ordering is
    supplied at creation time. *)

type 'a t

val create : ?initial_capacity:int -> leq:('a -> 'a -> bool) -> dummy:'a -> unit -> 'a t
(** [create ~leq ~dummy ()] is an empty heap ordered by [leq]. [leq a b]
    must hold when [a] should be popped no later than [b]. [dummy] fills
    the unused slots of the backing array; it is never returned. Pass a
    long-lived value (a toplevel constant): growing a large array
    filled with a freshly allocated one costs a minor collection. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** [peek h] is the minimum element without removing it. *)

val top : 'a t -> 'a
(** Like {!peek}, without the option. Raises [Invalid_argument] on an
    empty heap. *)

val pop : 'a t -> 'a option
(** [pop h] removes and returns the minimum element. *)

val pop_exn : 'a t -> 'a
(** Like {!pop}. Raises [Invalid_argument] on an empty heap. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** [to_list h] is every element of [h] in unspecified order. *)
