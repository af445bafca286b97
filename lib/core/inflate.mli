(** Lazy layout inflation (rules INFLATE1/INFLATE2, Section 3.2.1 /
    4.2): when a layout id reaches an inflation operation, mint one
    inflated-view abstraction per layout node, with parent-child and
    view=>id relationship edges.  Minting is memoized per
    (operation, layout), making the solver's op transfers
    idempotent. *)

type facts = {
  children : (Node.view_abs * Node.view_abs) list;  (** (parent, child), in layout edge order *)
  view_ids : (Node.view_abs * int) list;  (** views carrying an [android:id], in preorder *)
  onclick : bool;  (** the graph gained [android:onClick] handler names *)
  fragments : bool;  (** the graph gained [<fragment>] placeholders *)
}
(** The hot relation edges of a fresh subtree, which each engine
    stores in its own solution, and whether the cold ones the graph
    records itself (the memo, [android:onClick] names, declared
    fragments) grew. *)

val instantiate :
  Graph.t ->
  resources:Layouts.Resource.t ->
  site:Node.site ->
  Layouts.Layout.def ->
  Node.view_abs list * facts option
(** Returns the minted views in preorder — the root first — and, on
    the first call for an (op, layout), the subtree's facts.
    Subsequent calls return the same list and [None]. *)

val root : Node.view_abs list -> Node.view_abs
(** Head of a non-empty preorder list.  @raise Invalid_argument on
    empty (a layout always has a root). *)
