(** Growable bit sets over dense integer ids.

    The interned solver engine stores solution sets, delta sets and
    relationship tables as bitsets keyed by interner ids; the query
    daemon reads the same sets in place.  Words are OCaml native
    ints ([Sys.int_size] usable bits), so every hot operation is
    word-level. *)

type t

val bits_per_word : int

val create : unit -> t
(** Empty set; the word array grows on demand. *)

val mem : t -> int -> bool

val add : t -> int -> bool
(** [true] iff [i] was not already present. *)

val remove : t -> int -> unit

val is_empty : t -> bool

val clear : t -> unit
(** Remove every member, keeping the allocated capacity. *)

val copy : t -> t

val assign : t -> t -> unit
(** [assign dst src] overwrites [dst]'s contents with a copy of
    [src]'s — the bulk counterpart of clearing and re-adding every
    member. *)

val iter : (int -> unit) -> t -> unit
(** Members in increasing order (lowest set bit first). *)

val iter_with : ('a -> int -> unit) -> 'a -> t -> unit
(** [iter_with f x t] is [iter (f x) t] without building [f x]: a
    caller threads its state instead of capturing it in a closure. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val elements : t -> int list
(** Members in increasing order. *)

val cardinal : t -> int

val union_delta : into:t -> t -> on_new:(int -> unit) -> unit
(** Merge the second set into [into]; [on_new] fires once for each
    element newly added to [into] (the semi-naive propagation
    primitive: only genuinely fresh bits are visited). *)

val inter_delta : into:t -> t -> t -> on_new:(int -> unit) -> unit
(** [inter_delta ~into a b ~on_new] merges [a ∩ b] into [into];
    [on_new] fires once for each element newly added. *)

val subset : t -> t -> bool
(** [subset a b]: is every member of [a] already in [b]? *)

val intersects : t -> t -> bool

val equal : t -> t -> bool
(** Structural equality (capacity-insensitive). *)

val words : t -> int
(** Allocated words (capacity), for memory-pressure stats. *)

val same : t -> t -> bool
(** Physical identity — the aliasing test for shared component sets in
    the SCC-condensed solver (structural {!equal} cannot distinguish a
    shared set from an equal copy). *)
