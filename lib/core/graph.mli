(** The constraint graph (Section 4.1) and the relations computed over
    it (Section 4.2).

    Locations ({!Node.t}) carry points-to sets of abstract values; flow
    edges ([->] in the paper) connect locations; the [=>] relationship
    edges of the paper are stored as relations over abstract views:
    parent-child, view=>id, holder=>root, view=>listener, and
    root=>layout-id. *)

module VS : Set.S with type elt = Node.value

module View_set : Set.S with type elt = Node.view_abs

module Listener_set : Set.S with type elt = Node.listener_abs * string
(** Registrations: the listener together with the interface name it
    was registered under. *)

module Int_set : Set.S with type elt = int

type edge_kind =
  | E_direct
  | E_cast of string  (** flow through [x = (C) y]; may filter *)

(** An operation node with its connected locations. *)
type op = {
  site : Node.op_site;
  op_recv : Node.t;
  op_args : Node.t list;
  op_out : Node.t option;
}

(** Which view relations grew since the last {!take_rel_changes}. *)
type rel_changes = {
  rc_children : bool;
  rc_ids : bool;
  rc_roots : bool;
  rc_onclick : bool;
  rc_fragments : bool;
}

type t

val create : ?interner:Intern.t -> unit -> t
(** [?interner] pre-seeds the graph's id pools (incremental
    re-extraction: nodes shared with a previous solve keep their
    ids). *)

(** {1 Construction (used by {!Extract})} *)

val fresh_alloc : t -> cls:string -> site:Node.site -> Node.alloc_site

val fresh_op :
  t ->
  kind:Framework.Api.kind ->
  site:Node.site ->
  recv:Node.t ->
  args:Node.t list ->
  out:Node.t option ->
  op

val add_edge : t -> ?kind:edge_kind -> Node.t -> Node.t -> unit
(** Idempotent. *)

val seed : t -> Node.t -> Node.value -> unit
(** Record an initial value for a location (allocation results, id
    constants, implicit activity instances).  Seeding
    {!Node.V_layout_top} or {!Node.V_view_id_top} flips {!has_top}. *)

val has_top : t -> bool
(** Did any seed introduce an unknown-id marker?  Such graphs solve
    cold only — the warm guard refuses them. *)

(** {2 Id-level construction (context-keyed extraction)}

    The context-keyed extraction path walks clone bodies entirely in id
    space: endpoints are already interned (via {!Intern.ctx_node}), so
    these variants skip re-interning.  Both kinds of edge land in the
    one id-level adjacency the frozen CSR is built from; every edge
    [add_edge_ids] adds touches a context clone, and the structural
    views ({!succs}, {!locations}, {!pp_dot}) hide those edges, so they
    stay context-insensitive.
    [seed_id] and [fresh_op_ids] decode back to structural nodes (seeds
    and op records are rare and must match the inlining path
    byte-for-byte). *)

val add_edge_ids : t -> ?kind:edge_kind -> int -> int -> unit
(** [add_edge_ids t src_id dst_id] — idempotent, same dedup key as
    {!add_edge}.
    @raise Invalid_argument when an id is negative or not below
    [2^31] ({!Intern.pack}); the edge is not added. *)

val seed_id : t -> int -> Node.value -> unit

val fresh_op_ids :
  t ->
  kind:Framework.Api.kind ->
  site:Node.site ->
  recv:int ->
  args:int list ->
  out:int option ->
  op

(** {1 Points-to sets} *)

val add_value : t -> Node.t -> Node.value -> bool
(** [true] iff the set grew. *)

val set_of : t -> Node.t -> VS.t

val views_of : t -> Node.t -> Node.view_abs list

(** {2 Imprecision taint}

    The subset of each location's points-to set whose membership was
    justified (transitively) by an unknown-id marker.  Purely
    diagnostic: solving never branches on taint, and both engines
    compute the identical plane.  Invariant at fixpoint:
    [taints_of t n ⊆ set_of t n]. *)

val add_taint : t -> Node.t -> Node.value -> bool
(** [true] iff the taint set grew.  The value need not be in the
    points-to set yet (engines may taint ahead of the value landing). *)

val taints_of : t -> Node.t -> VS.t

val is_tainted : t -> Node.t -> Node.value -> bool

val install_taints : t -> Node.t -> VS.t -> unit
(** Wholesale row install (interned decode, snapshot restore).  An
    empty set clears the row. *)

val tainted_nodes : t -> (Node.t * VS.t) list
(** Every location with a non-empty taint set, in unspecified order. *)

val succs : t -> Node.t -> (edge_kind * Node.t) list
(** The flow successors of a location added by {!add_edge}, newest
    first.  Clone edges added by {!add_edge_ids} are not listed.  One
    interner lookup, then the id-level adjacency decoded. *)

val seeds : t -> (Node.t * VS.t) list

val reset_sets : t -> unit
(** Clear all points-to sets and relations back to the seeded state
    (used to re-solve under a different configuration). *)

(** {1 Relations} *)

val add_child : t -> parent:Node.view_abs -> child:Node.view_abs -> bool

val children_of : t -> Node.view_abs -> View_set.t

val parents_of : t -> Node.view_abs -> View_set.t

val descendants : t -> include_self:bool -> Node.view_abs -> View_set.t
(** Reflexive-or-strict transitive closure of parent-child, by BFS. *)

val add_view_id : t -> Node.view_abs -> int -> bool

val ids_of_view : t -> Node.view_abs -> Int_set.t

val add_holder_root : t -> Node.holder -> Node.view_abs -> bool

val roots_of_holder : t -> Node.holder -> View_set.t

val holders : t -> Node.holder list

val add_view_listener : t -> Node.view_abs -> Node.listener_abs -> iface:string -> bool

val listeners_of_view : t -> Node.view_abs -> Listener_set.t

val views_with_listeners : t -> Node.view_abs list

val add_root_layout : t -> Node.view_abs -> int -> bool

val layouts_of_root : t -> Node.view_abs -> Int_set.t

val add_onclick : t -> Node.view_abs -> string -> bool
(** Declarative [android:onClick] handler name carried by an inflated
    view. *)

val onclicks_of : t -> Node.view_abs -> string list

val views_with_onclick : t -> Node.view_abs list
(** Views carrying at least one declarative handler — lets the solver
    iterate handlers directly instead of scanning whole hierarchies. *)

val add_declared_fragment : t -> Node.view_abs -> string -> bool
(** Fragment class declared by a [<fragment>] placeholder node. *)

val declared_fragments_of : t -> Node.view_abs -> string list

val views_with_declared_fragments : t -> Node.view_abs list

val take_rel_changes : t -> rel_changes
(** Which relations grew since the previous call; clears the flags. *)

val add_transition : t -> from_:string -> to_:string -> bool
(** Activity-transition edge (extension: STARTACTIVITY). *)

val transitions : t -> (string * string) list

(** {1 Inflation bookkeeping} *)

val find_inflation : t -> site:Node.site -> layout:string -> Node.view_abs list option

val record_inflation : t -> site:Node.site -> layout:string -> Node.view_abs list -> unit

val inflated_views : t -> Node.view_abs list
(** Every [V_infl] minted so far (Table 1's "views (I)"). *)

(** {1 Cold-relation enumeration (snapshots, warm restarts)}

    Entries of the relations maintained structurally during interned
    solving, in unspecified order. *)

val inflation_entries : t -> (Node.site * string * Node.view_abs list) list

val onclick_entries : t -> (Node.view_abs * string list) list

val declared_fragment_entries : t -> (Node.view_abs * string list) list

val root_layout_entries : t -> (Node.view_abs * int list) list

(** {1 Inspection} *)

val ops : t -> op list
(** In creation order. *)

(** {1 Interned ids (interned solver)}

    The graph hash-conses every node touched by an edge, seed, or op
    into a shared {!Intern.t} as it is built, and mirrors the flow
    edges at the id level.  The interned solver therefore freezes into
    CSR arrays with pure integer work — no node is re-hashed at solve
    time. *)

val interner : t -> Intern.t

val node_id : t -> Node.t -> int
(** Dense id of [node], minting one if the node is new. *)

type flow_csr = {
  fc_nodes : int;  (** interned node count at freeze time *)
  fc_row : int array;  (** [fc_nodes + 1] entries; full CSR in insertion order *)
  fc_edst : int array;
  fc_ekind : int array;  (** [-1] = direct, otherwise index into [fc_cast_names] *)
  fc_cast_names : string array;
  fc_rep : int array;
      (** node id -> representative of its direct-edge SCC (the
          smallest member id); sized [fc_nodes] — ids minted after the
          freeze are implicitly their own singleton components *)
  fc_crow : int array;  (** condensed CSR over representatives, [fc_nodes + 1] entries *)
  fc_cdst : int array;  (** destinations, already representatives *)
  fc_ckind : int array;
  fc_scc_count : int;  (** components over all [fc_nodes] nodes (singletons included) *)
  fc_largest_scc : int;  (** size of the largest component; [0] when the graph is empty *)
}

val frozen_flow : t -> flow_csr
(** CSR flow edges over node ids in insertion order, plus the SCC
    condensation of the direct-edge subgraph.  Cast edges stay out of
    the condensation (they filter); after mapping endpoints through
    [fc_rep], intra-component edges are dropped and the rest deduped
    into [fc_crow]/[fc_cdst]/[fc_ckind].  Memoized on the edge count:
    adding an edge invalidates the snapshot, while nodes minted after
    the freeze (views discovered mid-solve) need no rebuild — they have
    no flow edges and act as singleton components. *)

val ops_node_ids : t -> (int * int array * int) array
(** Aligned with {!ops}: per op, (recv id, arg ids, out id or [-1]). *)

(** {1 Solution installation (interned solver)}

    The interned engine solves over dense ids and then decodes its
    bitsets back into these structural tables, so every consumer of
    the solved graph is engine-agnostic.  {!reset_solution_tables}
    clears exactly the tables the id-level stores mirror (points-to
    sets, children/parents, view ids, holder roots, listeners); cold
    relations the interned engine maintains structurally (onclick,
    declared fragments, root layouts, inflations, transitions) are
    untouched. *)

val reset_solution_tables : t -> unit

val install_set : t -> Node.t -> VS.t -> unit

val install_children : t -> Node.view_abs -> View_set.t -> unit

val install_parents : t -> Node.view_abs -> View_set.t -> unit

val install_ids : t -> Node.view_abs -> Int_set.t -> unit

val install_roots : t -> Node.holder -> View_set.t -> unit

val install_listeners : t -> Node.view_abs -> Listener_set.t -> unit

val copy_solution_tables :
  children:bool -> ids:bool -> roots:bool -> listeners:bool -> src:t -> t -> unit
(** Warm materialisation: seed this graph's solution tables from
    [src]'s, skipping the relations whose flag is [false] (the warm
    solver rebuilds those wholesale); the caller then re-installs only
    the dirty rows.  The points-to table is adopted as a read-only
    base layer (O(1)) rather than copied — this graph's own installs
    and removals shadow it — while the relation tables are copied. *)

val remove_solution_row : t -> Node.t -> unit
(** Drop a copied points-to row whose set emptied out (node no longer
    reached after a patch). *)

val allocs : t -> Node.alloc_site list

val locations : t -> Node.t list
(** Every location mentioned by an edge, seed, set, or op, each once.
    Enumeration order: the endpoints of {!succs} edges first, by
    ascending source id (each source, then its successors newest
    first); then seeded, solved and op-touching locations not yet
    listed.  Building the same graph twice gives the same order. *)

val edge_count : t -> int

val pp_dot : t Fmt.t
(** Graphviz rendering of the solved graph: locations, op nodes, flow
    edges, and relationship edges (Figures 3-4 style).  Locations come
    in {!locations} order, op nodes in creation order, and flow edges
    (those {!succs} lists) by ascending source id. *)
