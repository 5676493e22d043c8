(** Deterministic ordered map over small non-negative integer keys.

    The container behind every fd-keyed hot path (event-loop watch
    tables, server connection tables, descriptor tables). Layout is an
    int-radix direct map: a value slot per possible key plus an
    occupancy bitmap, so [find]/[set]/[remove] are O(1) and iteration
    walks keys in ascending order by skipping empty 32-key words —
    amortized O(1) per live entry at the densities fd allocation
    produces, with no per-call snapshot, sort, or allocation. Values
    are stored unboxed, so neither {!set} nor {!get} allocates.

    Iteration order is intrinsic (ascending key), never a function of
    insertion or resize history: two maps holding the same bindings
    iterate identically regardless of how they got there. This is what
    lets dispatch, sweep, and handoff order escape into
    simulation-visible behaviour without a defensive
    [List.sort (Hashtbl.fold ...)] snapshot per call.

    Cursors are mutation-safe by construction. During [iter]/[fold]:
    removing the current key or any not-yet-visited key is allowed
    (a removed key is simply not visited); adding a key larger than
    the cursor is allowed and the new key {e is} visited, even when
    the addition grows the backing store; adding a key at or below the
    cursor takes effect but is not visited this pass. *)

type 'a t

val create : ?initial_capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty map. [dummy] fills the unbound
    slots and is what {!get} answers for them; pass a long-lived value
    (a toplevel constant), as for {!Heap.create}. [initial_capacity]
    (default 64) pre-sizes the slot array for the largest key
    expected; the map grows transparently past it. *)

val length : 'a t -> int
(** Number of bindings, O(1). *)

val is_empty : 'a t -> bool

val mem : 'a t -> int -> bool
(** O(1). [mem m k] is [false] for negative [k]. *)

val get : 'a t -> int -> 'a
(** O(1) and allocation-free: the bound value, or the map's [dummy]
    for absent or negative keys. *)

val find : 'a t -> int -> 'a option
(** O(1). [None] for absent or negative keys. Builds the option: hot
    paths use {!mem} and {!get}. *)

val set : 'a t -> int -> 'a -> unit
(** [set m k v] binds [k] to [v], replacing any previous binding.
    O(1) amortized (growth doubles the slot array). Raises
    [Invalid_argument] if [k < 0]. *)

val remove : 'a t -> int -> bool
(** [remove m k] deletes the binding for [k]; [true] iff one existed.
    O(1); never shrinks the backing store. *)

val clear : 'a t -> unit
(** Remove every binding, keeping the backing store for reuse. *)

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** [iter m f] applies [f] to every binding in ascending key order.
    Safe under the mutations documented above. *)

val fold : 'a t -> init:'acc -> f:('acc -> int -> 'a -> 'acc) -> 'acc
(** Ascending-key fold. Same mutation-safety as {!iter}. *)

val to_list : 'a t -> (int * 'a) list
(** Bindings in ascending key order (freshly allocated; used by
    snapshot-then-clear call sites and tests). *)

val min_key : 'a t -> int option
(** Smallest bound key, O(capacity/32) worst case. *)

val max_key : 'a t -> int option
(** Largest bound key. *)
