(** The constraint graph (Section 4.1) and the relations computed over
    it (Section 4.2).

    Locations ({!Node.t}) carry points-to sets of abstract values; flow
    edges ([->] in the paper) connect locations; the [=>] relationship
    edges of the paper are stored as relations over abstract views:
    parent-child, view=>id, holder=>root, view=>listener, and
    root=>layout-id.

    The graph holds the program's constraints and the cold relations
    (inflations, declarative handlers, declared fragments, root
    layouts, transitions) structurally.  The solved points-to sets,
    the hot relations and the taint plane live in one place: the
    solver's id-level {!solution}, which the reads below decode when
    they are called (points-to reads through a read index built on the
    first of them). *)

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

(** {1 The solution store}

    A solve leaves its result here as bitset rows over interner ids —
    the same arrays the interned engine solved in and a captured
    {!Solve.solved} persists, so nothing is copied.  Points-to rows
    are kept per direct-edge component representative ([sol_rep]; ids
    past its end are their own representative); every other row is
    keyed by its own id.  The naive reference encodes its structural
    result into the same shape, with every node its own
    representative. *)

type rows = Util.Bitset.t option array
(** Id-indexed rows; a missing or out-of-range slot is an empty row. *)

type solution = {
  sol_rep : int array;  (** node id -> representative of its points-to row *)
  sol_sets : rows;  (** representative -> value ids *)
  sol_children : rows;  (** view id -> child view ids *)
  sol_parents : rows;  (** view id -> parent view ids *)
  sol_ids : rows;  (** view id -> rid symbols ({!Intern.rid}) *)
  sol_roots : rows;  (** holder id -> root view ids *)
  sol_listeners : rows;  (** view id -> listener entry ids *)
  sol_taints : rows;  (** node id -> tainted value ids *)
}

val empty_solution : solution

val solution : t -> solution

val set_solution : t -> solution -> unit
(** Install a solve's result.  The rows are read in place, never
    mutated. *)

val row : rows -> int -> Util.Bitset.t option
(** [None] for an id past the end. *)

val points_to_row : solution -> int -> Util.Bitset.t option
(** The points-to row of a node id, through its representative. *)

val holder_views : solution -> int -> Util.Bitset.t
(** The displayable views of a holder id: its root views plus all
    their descendants over the child rows, as a fresh bitset of view
    ids ({!descendants} walks the same closure). *)

(** {1 Points-to sets}

    Points-to reads come in bulk right after a solve, so the first one
    decodes every points-to row in one pass (each component's set
    once, shared by its members) into a read index that lives until
    the next {!set_solution} or {!reset_sets}.  Graphs nobody reads
    through this API — a daemon's resident entries, warm-solve donors,
    loaded snapshots — never build it.  The first read mutates the
    graph: do not race it across domains. *)

val set_of : t -> Node.t -> VS.t

val views_of : t -> Node.t -> Node.view_abs list

(** {2 Imprecision taint}

    The subset of each location's points-to set whose membership was
    justified (transitively) by an unknown-id marker.  Purely
    diagnostic: solving never branches on taint; one pass over the
    store computes it after either engine.  Invariant:
    [taints_of t n ⊆ set_of t n]. *)

val taints_of : t -> Node.t -> VS.t

val is_tainted : t -> Node.t -> Node.value -> bool

val tainted_nodes : t -> (Node.t * VS.t) list
(** Every location with a non-empty taint set, by ascending node id. *)

val succs : t -> Node.t -> (edge_kind * Node.t) list
(** The flow successors of a location added by {!add_edge}, newest
    first.  Clone edges added by {!add_edge_ids} are not listed.  One
    interner lookup, then the id-level adjacency decoded. *)

val seeds : t -> (Node.t * VS.t) list

val reset_sets : t -> unit
(** Drop the solution and the cold relations, back to the seeded state
    (used to re-solve under a different configuration). *)

(** {1 Relations} *)

val children_of : t -> Node.view_abs -> View_set.t

val parents_of : t -> Node.view_abs -> View_set.t

val descendants : t -> include_self:bool -> Node.view_abs -> View_set.t
(** Reflexive-or-strict transitive closure of parent-child. *)

val ids_of_view : t -> Node.view_abs -> Int_set.t

val roots_of_holder : t -> Node.holder -> View_set.t

val holders : t -> Node.holder list
(** Holders with at least one root, by ascending holder id. *)

val listeners_of_view : t -> Node.view_abs -> Listener_set.t

val views_with_listeners : t -> Node.view_abs list
(** By ascending view id. *)

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

val allocs : t -> Node.alloc_site list

val locations : t -> Node.t list
(** Every location mentioned by an edge, seed, op, or solved set, each
    once.  Enumeration order: the structural part first — a walk over
    the endpoints of {!succs} edges (by ascending source id), then the
    seeded locations, then the op nodes (newest op first), listed in
    reverse walk order — followed by the locations only the solve
    reached, by ascending node id.  Building the same graph twice gives
    the same order. *)

val edge_count : t -> int

val pp_dot : t Fmt.t
(** Graphviz rendering of the solved graph: locations, op nodes, flow
    edges, and relationship edges (Figures 3-4 style).  Locations come
    in {!locations} order, op nodes in creation order, flow edges
    (those {!succs} lists) by ascending source id, and relationship
    edges by ascending key id. *)
