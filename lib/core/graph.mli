(** The constraint graph (Section 4.1) and the relations computed over
    it (Section 4.2).

    Locations ({!Node.t}) carry points-to sets of abstract values; flow
    edges ([->] in the paper) connect locations; the [=>] relationship
    edges of the paper are stored as relations over abstract views:
    parent-child, view=>id, holder=>root and view=>listener.  The
    paper's root=>layout-id edge needs no table: a root inflated view
    names its layout.

    The graph holds the program's constraints and one cold table, the
    inflation memo.  The solved points-to sets, the hot relations and
    the taint plane live in one place: the solver's id-level
    {!solution}.  This module keeps those rows and the row-level
    helpers; {!Reader} is the one decoder of them into structural
    answers, for batch and daemon clients alike.
    Everything else the rules read about an inflated view (its
    [android:onClick] handler, its [<fragment>] class) comes from its
    layout node ({!Inflate.onclick}, {!Inflate.declared_fragment}), and
    activity transitions are a read over the solved sets
    ({!Analysis.transitions}). *)

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
(** Idempotent: a repeated edge is logged but frozen once. *)

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
    one edge log the frozen CSR is built from; every edge
    [add_edge_ids] adds touches a context clone, and the structural
    views ({!succs}, {!locations}, {!Reader.pp_dot}) hide those edges, so they
    stay context-insensitive.
    [seed_id] logs a clone id as the inlining path would: it is the
    renamed variable's id.  [fresh_op_ids] decodes back to structural
    nodes (op records must match the inlining path byte-for-byte). *)

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

(** {2 Extraction logs and per-method fragments}

    Everything extraction emits lands, in emission order, in four
    append-only logs over interned ids: flow edges (repeats included —
    the freeze deduplicates), seeds, distinct allocation sites and
    operation nodes.  At inline depth 0 a method's statements emit one
    contiguous slice of each log that depends only on its body, the
    class hierarchy and the resource tables: its {e fragment}.
    {!Extract} records where each method's slice starts; an
    incremental re-extraction replays the slices of unedited methods
    from the previous graph instead of re-walking their bodies. *)

type cursor = { c_edges : int; c_seeds : int; c_allocs : int; c_ops : int }
(** Positions in the edge, seed, allocation and op logs.  An op's
    position is its index in {!ops}. *)

type fragments = {
  fr_program : Jir.Ast.program;  (** the program extracted *)
  fr_starts : cursor array;
      (** one entry per method in program order (class order, then
          method order): where its slice starts; then the start of
          the global seed passes, then the end of the logs *)
  fr_dialogs : int;
      (** where in the seed log the dialog-callback pass starts (the
          global passes log seeds only) *)
  fr_counts : int * int;
      (** the resource tables' sizes ({!Layouts.Resource.counts}) when
          the extraction finished *)
}

val cursor : t -> cursor
(** The current end of the logs. *)

val fragments : t -> fragments option
(** [None] unless a depth-0 extraction recorded them (a graph loaded
    from a snapshot has none). *)

val set_fragments : t -> fragments -> unit

val replay : t -> from:t -> cursor -> cursor -> unit
(** [replay t ~from lo hi] appends [from]'s log slice [\[lo, hi)] to
    [t], exactly as re-running the statements that emitted it would:
    cast classes get [t]'s symbols in log order.  The edge range is
    shared with [from], not copied, unless its cast symbols renumber
    in [t] or [from]'s edge log already spans eight shared ranges; the
    other logs' ranges are blitted.  The two graphs must share an
    interner, and the slice must come from a depth-0 extraction (its
    allocation sites are not entered in [t]'s dedup table: no other
    method can mint them). *)

val shift : base:cursor -> lo:cursor -> cursor -> cursor
(** [shift ~base ~lo at]: where position [at] of a slice starting at
    [lo] lands when the slice is replayed at [base]. *)

val seed_at : t -> int -> int * Node.value
(** The seed log's entry at a position: node id and value. *)

val seed_ids_at : t -> int -> int * int
(** The seed log's entry at a position as node id and value id, the
    pair {!seed_pairs} lists it as. *)

val alloc_at : t -> int -> Node.alloc_site
(** The allocation log's entry at a position ({!allocs} order). *)

(** {1 The solution store}

    A solve leaves its result here as bitset rows over interner ids —
    the same arrays the interned engine solved in and a captured
    {!Solve.solved} persists, so nothing is copied.  Points-to rows
    are kept per direct-edge component representative ([sol_rep]; ids
    past its end are their own representative); every other row is
    keyed by its own id.  The rule-table reference ({!Rules.run})
    encodes its structural result into the same shape, with every
    node its own representative. *)

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

val rep : solution -> int -> int
(** The representative whose points-to row a node id reads. *)

val points_to_row : solution -> int -> Util.Bitset.t option
(** The points-to row of a node id, through its representative. *)

val keys : rows -> int list
(** The ids holding a non-empty row, ascending. *)

val holder_views : solution -> int -> Util.Bitset.t
(** The displayable views of a holder id: its root views plus all
    their descendants over the child rows, as a fresh bitset of view
    ids. *)

val ancestors : solution -> Util.Bitset.t -> Util.Bitset.t
(** The given view ids and every view above them over the parent rows,
    as a fresh bitset: the argument is not written. *)

val holders : t -> Node.holder list
(** Holders with at least one root, by ascending holder id. *)

val views_with_listeners : t -> Node.view_abs list
(** By ascending view id. *)

val read_index : t -> build:(t -> Node.value list array) -> Node.value list array
(** The points-to read index {!Reader.points_to} reads: [build]'s
    decode of the rows, run by the first call after a {!set_solution}
    and kept until the next.  The first call mutates the graph: do not
    race it across domains. *)

(** {1 Flow edges and seeds} *)

val succs : t -> Node.t -> (edge_kind * Node.t) list
(** The flow successors of a location added by {!add_edge}, newest
    first.  Clone edges added by {!add_edge_ids} are not listed.  One
    interner lookup, then the node's row of {!frozen_flow} decoded. *)

val seeds : t -> (int * Node.value list) list
(** The seeded node ids, each once with its distinct values in
    {!Node.compare_value} order, read off the seed log: the cold solve
    and the reference push in this order.  Nodes come by descending
    [Hashtbl.hash (Intern.node_of it nid) land (b - 1)], [b] the bucket
    count a 128-bucket stdlib table reaches for that many keys (doubled
    while over [2b]), ties in first-log order: an unseeded table's fold.
    The counters pinned in [perfbench/expected/modes.json] follow it;
    log order would be simpler, but needs a benchmark change re-pinning
    them first. *)

val seed_pairs : t -> (int * int) array
(** The seed log as sorted, deduplicated (node id, value id)
    pairs. *)

val reset_sets : t -> unit
(** Drop the solution and the inflation memo, back to the seeded state
    (used to re-solve under a different configuration). *)

(** {1 Inflation bookkeeping} *)

val find_inflation : t -> site:Node.site -> layout:string -> Node.view_abs list option

val record_inflation : t -> site:Node.site -> layout:string -> Node.view_abs list -> unit

val inflated_views : t -> Node.view_abs list
(** Every [V_infl] minted so far (Table 1's "views (I)"). *)

val inflation_entries : t -> (Node.site * string * Node.view_abs list) list
(** The memo's entries (snapshots, warm restarts, the declarative
    passes), in the fold order of the memo's unseeded table. *)

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

val freeze_with :
  ?condense:(int -> int array -> int array -> int array -> int array -> int array * int array * int array) ->
  t ->
  flow_csr
(** The freeze {!frozen_flow} performs, not memoized, with
    [condense n row edst ekind rep] (when given) in place of its
    condensation step — which buckets each representative's members
    and deduplicates direct edges with a stamp array, cast edges with a
    small table.  For differential tests of that step against a
    reference, and of {!freeze_delta} against a full freeze. *)

(** {2 Delta freeze}

    The frozen flow of a graph assembled from a previous one's
    fragments ({!Extract.reextract}), derived from the previous graph's
    instead of rebuilt.  Its result equals {!frozen_flow}'s field for
    field, and it is installed as the graph's memo, so every later
    {!frozen_flow} (the solver's freeze included) reads it. *)

type freeze_path =
  | Delta_kept  (** no partition work: no added edge closed a cycle, none was removed inside a component *)
  | Delta_merged  (** an added direct edge closed a cycle; the components on it merged *)
  | Delta_split  (** a direct edge left a component, which was re-condensed alone *)
  | Full of string  (** the delta declined, for this reason; {!frozen_flow} builds in full *)

type freeze_report = {
  fz_path : freeze_path;
  fz_rows : int;  (** condensed rows rebuilt ([0] when [Full]) *)
  fz_changed : (int * (int * int) array * (int * int) array) list;
      (** the flow rows that changed, by ascending source: the source,
          its previous row and its new row as (kind, destination)
          pairs in CSR order.  Previous kinds are in the new cast
          numbering, a class no longer cast to as [-2 - previous sym]
          (the sentinel {!Diff.edit_script} uses).  [[]] when [Full]. *)
  fz_moved : int array;
      (** the nodes whose representative changed (merged or split
          components), ascending; empty when [Full] or [Delta_kept] *)
}

val freeze_delta : t -> prev:t -> edited:bool array -> freeze_report
(** [freeze_delta t ~prev ~edited] freezes [t], assembled over [prev]
    with the methods [edited] marks (program order) re-extracted and
    every other method's fragment replayed.  Only the rows of sources
    the edited methods' old or new slices emit from are rebuilt, from
    one scan of the edge log.  An added direct edge between two
    components keeps the partition unless a search from the
    destination's component over the previous condensation's direct
    edges reaches the source's, in which case the components on those
    paths merge (representative = smallest member).  A removed direct
    edge inside a component re-runs Tarjan on that component's members
    only.  Condensed rows are rebuilt for the representatives with a
    changed member row; when the partition moved, all of them, from the
    new representative map.  Declines (and installs nothing) when
    either graph lacks fragments, [prev] was not frozen at its current
    edge count, the graphs do not share an interner, or an added edge
    may close a cycle through a removed one. *)

val pp_freeze_path : freeze_path Fmt.t

val op_table : t -> (Node.op_site * int * int array * int) array
(** Aligned with {!ops}: per op, its site, receiver id, argument ids
    and out id (or [-1]). *)

val allocs : t -> Node.alloc_site list

val locations : t -> Node.t list
(** Every location mentioned by an edge, seed, op, or solved set, each
    once.  Enumeration order: the structural part first — a walk over
    the endpoints of {!succs} edges (by ascending source id), then the
    seeded locations (reverse {!seeds} order), then the op nodes (newest
    op first), listed in reverse walk order — followed by the locations
    only the solve reached, by ascending node id: no table's seed. *)

val edge_count : t -> int
(** Distinct flow edges: the frozen CSR's size ({!frozen_flow}, built
    if the log grew since the last freeze). *)
