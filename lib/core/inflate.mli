(** Lazy layout inflation (rules INFLATE1/INFLATE2, Section 3.2.1 /
    4.2): when a layout id reaches an inflation operation, mint one
    inflated-view abstraction per layout node, with parent-child and
    view=>id relationship edges.  Minting is memoized per
    (operation, layout) in the graph's inflation memo, making the
    solver's op transfers idempotent.

    An inflated view names its layout and its path in it, so what the
    rules read from its layout node — its [android:onClick] handler
    and its [<fragment>] class — is derived here on demand, never
    stored. *)

type facts = {
  children : (Node.view_abs * Node.view_abs) list;  (** (parent, child), in layout edge order *)
  view_ids : (Node.view_abs * int) list;  (** views carrying an [android:id], in preorder *)
  onclick : bool;  (** some view of the subtree has an [android:onClick] handler *)
  fragments : bool;  (** some view of the subtree is a [<fragment>] placeholder *)
}
(** The hot relation edges of a fresh subtree, which each engine
    stores in its own solution, and whether the subtree gives the
    declarative passes something new to do. *)

val instantiate :
  Graph.t ->
  resources:Layouts.Resource.t ->
  site:Node.site ->
  Layouts.Layout.def ->
  Node.view_abs list * facts option
(** Returns the minted views in preorder — the root first — and, on
    the first call for an (op, layout), the subtree's facts.
    Subsequent calls return the same list and [None]. *)

val facts : resources:Layouts.Resource.t -> Layouts.Layout.def -> Node.view_abs list -> facts
(** The facts of an inflation of a layout, re-derived from its views
    in the memo (as {!instantiate} returned them): what the first
    {!instantiate} call handed out, in the same order. *)

val root : Node.view_abs list -> Node.view_abs
(** Head of a non-empty preorder list.  @raise Invalid_argument on
    empty (a layout always has a root). *)

val onclick : Layouts.Package.t -> Node.view_abs -> string option
(** The [android:onClick] handler of an inflated view's layout node. *)

val declared_fragment : Layouts.Package.t -> Node.view_abs -> string option
(** The fragment class of an inflated [<fragment>] placeholder. *)

val iter_memo :
  Graph.t -> Layouts.Package.t -> (Node.view_abs -> Layouts.Layout.node -> unit) -> unit
(** Every view of the graph's inflation memo with the layout node it
    was minted from. *)
