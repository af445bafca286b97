(** The one reader of a solve's rows ({!Graph.solution}): {!Analysis}
    and everything built on it, and {!Query}'s daemon reads, decode
    them here through the graph's interner.  Lookups never mint (a key
    the interner never saw reads empty), and lists are sorted by the
    element type's comparison unless a function says otherwise. *)

val views : Intern.t -> Util.Bitset.t option -> Node.view_abs list
(** A row of view ids, decoded. *)

val points_to : Graph.t -> Node.t -> Node.value list
(** The node's representative's slot in the graph's read index
    ({!Graph.read_index}), which the first call after a solve builds. *)

val find_points_to : Graph.t -> Node.t -> Node.value list option
(** {!points_to} decoded per call, without the index; [None] for a node
    never interned. *)

val views_at : Graph.t -> Node.t -> Node.view_abs list
(** The views in {!points_to}, in descending {!Node.compare_value} order. *)

val taints : Graph.t -> Node.t -> Node.value list
(** The node's taint row: the part of {!points_to} whose membership an
    unknown-id marker justified (DESIGN §15). *)

val tainted_nodes : Graph.t -> (Node.t * Node.value list) list
(** The nodes with a non-empty taint row, by ascending node id. *)

val children : Graph.t -> Node.view_abs -> Node.view_abs list

val ids : Graph.t -> Node.view_abs -> int list
(** Raw view ids, the ⊤ sentinel ({!Node.top_view_id_raw}) included. *)

val listeners : Graph.t -> Node.view_abs -> (Node.listener_abs * string) list
(** Each listener with the interface it was registered under. *)

val roots : Graph.t -> Node.holder -> Node.view_abs list

val holder_views : Graph.t -> Node.holder -> Node.view_abs list
(** Roots plus all their descendants ({!Graph.holder_views}). *)

val id_carriers : ?by_id:Graph.rows -> Graph.t -> Layouts.Package.t -> string -> Util.Bitset.t
(** The ids of the views carrying the named id, or the sentinel of a
    [SetId (v, ⊤)], which matches every name, declared or not.  With
    [by_id], a captured solve's inverse id rows ([sd_by_id]), it is a
    row lookup, not a scan, and may return one of those rows. *)

val views_with_listener : Graph.t -> Node.listener_abs -> Node.view_abs list
(** The views the listener is registered on, under any interface. *)

val pp_dot : Graph.t Fmt.t
(** Graphviz rendering of the solved graph (Figures 3-4 style):
    locations in {!Graph.locations} order, op nodes in creation order,
    flow edges ({!Graph.succs}) and relationship edges by ascending
    source or key id. *)
