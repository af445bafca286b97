(** The constraint solver (Section 4.2/4.3): graph reachability to
    propagate values, plus a fixed-point loop applying the inference
    rules at operation nodes — INFLATE1/2, ADDVIEW1/2, SETID,
    SETLISTENER, FINDVIEW1/2/3 — until no points-to set and no
    relationship edge changes. *)

type stats = {
  iterations : int;  (** operation-pass rounds until fixpoint *)
  propagations : int;  (** total worklist pops *)
  op_applications : int;
      (** op-node rule applications: only ops whose inputs grew are
          re-applied, against the rule-table reference's
          [iterations * |ops|] *)
  delta_pushes : int;
      (** values pushed from delta sets along flow edges *)
  desc_cache_hits : int;
      (** descendants-closure memo hits *)
  desc_cache_misses : int;  (** descendants-closure memo misses *)
  interned_values : int;
      (** distinct abstract values hash-consed *)
  interned_nodes : int;  (** distinct interned locations *)
  bitset_words : int;
      (** words allocated across solution-set bitsets at fixpoint *)
  union_calls : int;
      (** word-level bitset unions performed on direct flow edges *)
  scc_count : int;
      (** strongly connected components of the direct-edge flow graph
          at freeze time (singletons included) *)
  largest_scc : int;
      (** member count of the largest direct-edge SCC — every cycle
          this size collapses to one shared bitset *)
  ctx_count : int;
      (** distinct call-string contexts (clone numbers) minted by the
          context-keyed extraction; [0] at inline depth 0 *)
  ctx_keys : int;
      (** distinct ⟨node, ctx⟩ keys interned by the context-keyed
          extraction (the id-space footprint context sensitivity added);
          [0] likewise *)
  warm_solve : bool;
      (** the solution was reached by the incremental (warm) path:
          previous component solutions restored, only dirty components
          re-solved *)
  dirty_comps : int;
      (** condensation components invalidated by the edit script and
          re-solved from scratch (warm solves, else [0]) *)
  reused_comps : int;
      (** components whose previous solution sets were restored by
          aliasing (warm solves, else [0]) *)
  fallback : string option;
      (** set when the warm guard refused an incremental request
          (changed configuration, hierarchy or layouts, unknown-id
          markers, inline depth > 0) and a full solve ran instead;
          carries the reason *)
  taint_rounds : int;
      (** rounds of the taint stratum (sound mode: the graph holds an
          unknown-id marker), each the ops' pending taint entries, the
          lift and taint flow; [0] without markers, like the two
          below *)
  taint_propagations : int;  (** taint-delta worklist pops *)
  taint_op_applications : int;  (** op applications of the taint entries *)
}

val run : Config.t -> Framework.App.t -> Graph.t -> stats
(** Mutates the graph's points-to sets and relations, and its taint
    rows when it holds an unknown-id marker.  Safe to re-run: sets are
    reset from the seeds first.  The solution, taint included, is the
    rule table's fixpoint: {!Analysis.reference} interprets the same
    table. *)

(** {1 Incremental re-analysis}

    A full solve can be captured as a {!solved}; when a patched version
    of the app is extracted over the same interner
    ([Extract.run ~interner]), {!Diff.edit_script} between the two
    {!shape}s drives {!run_incremental}: only the condensation
    components forward-reachable from the edits are re-solved, every
    other component's points-to set is restored by aliasing the
    previous bitset, and the relation rows are restored by copying.
    The warm result is bit-identical to a from-scratch solve. *)

(** The diffable summary of a constraint graph: flow CSR, seeds, and
    operation nodes, all over interner ids. *)
type shape = {
  sh_nodes : int;  (** nodes covered by the flow CSR *)
  sh_row : int array;
  sh_edst : int array;
  sh_ekind : int array;  (** [-1] direct, else index into [sh_cast_names] *)
  sh_cast_names : string array;
  sh_seeds : (int * int) array;  (** sorted (node id, value id) pairs *)
  sh_ops : (Node.op_site * int * int array * int) array;
      (** per op: site, receiver id, argument ids, out id or [-1] *)
}

(** Edit script between two shapes sharing an interner (produced by
    {!Diff.edit_script}, or derived from a delta freeze by
    {!Diff.delta_edit_script}).  Edge kinds are in the NEW shape's
    cast-symbol space; removed edges whose cast class vanished carry a
    sentinel [<= -2]. *)
type edit_script = {
  es_removed_edges : (int * int * int) array;  (** (src, kind, dst) *)
  es_added_edges : (int * int * int) array;
  es_removed_seeds : (int * int) array;
  es_added_seeds : (int * int) array;
  es_old_to_new : int array;  (** old op index -> new, [-1] unmatched (removed) *)
  es_new_to_old : int array;  (** new op index -> old, [-1] unmatched (added) *)
  es_moved : int array option;
      (** the nodes whose direct-edge component representative changed
          between the two graphs' freezes, when the producer knows them
          (a delta freeze's {!Graph.freeze_report}[.fz_moved]); with
          [None], {!run_incremental} compares the two rep maps *)
}

(** Dynamic return-dependency kinds, as captured: a method-return
    location some op (or the declared-fragment pass) re-fires on when
    it grows. *)
type rd = RD_op of int | RD_frags

(** A captured solution, held in memory: the {!shape} it was solved
    over plus the rows it reached.  Treat every field as READ-ONLY — a
    warm solve started from it borrows its points-to sets copy-on-write
    and copies its relation rows, and [sd_graph]'s solution store
    aliases them all.  [sd_graph] carries the interner, the inflation
    memo, the taint rows and, at inline depth 0, the fragments naming
    the program it was extracted from, against which the warm guard
    compares a patched program.  The interner may grow after capture
    (a later warm solve over it mints more ids). *)
type solved = {
  sd_config : Config.t;
  sd_app_name : string;
  sd_package : Layouts.Package.t;
  sd_graph : Graph.t;
  sd_node_total : int;  (** interned node count at capture *)
  sd_shape : shape;  (** the flow CSR, seeds and ops the solve ran over *)
  sd_solution : Graph.solution;
      (** the captured rows — [sd_graph]'s solution store at capture,
          its rep map sized [sd_shape.sh_nodes]; aliased, never
          mutated *)
  sd_sets : int;  (** points-to sets ([Some] slots) in [sd_solution.sol_sets] *)
  sd_words : int;
      (** their words ({!stats.bitset_words}): a warm solve carries the
          count forward instead of walking every set *)
  sd_by_id : Util.Bitset.t option array;  (** rid sym -> view ids carrying it *)
  sd_holder_ids : int list;  (** discovery order, newest first *)
  sd_ret_deps : (int * rd) list;  (** representative -> dynamic reader *)
  sd_targets : Util.Bitset.t array;
      (** per op, plus declarative and fragment pseudo-slots at
          [|ops|] and [|ops|+1]: representatives the writer pushed
          values to (transitive across warm restarts) *)
}

val shape_of_graph : Graph.t -> shape

val shape_of_solved : solved -> shape
(** [sd_shape]. *)

val solved_interner : solved -> Intern.t
(** The interner of [sd_graph]. *)

val run_solved : ?fallback:string -> Config.t -> Framework.App.t -> Graph.t -> stats * solved
(** Full solve that also captures the solution for warm restarts.
    The installed solution is {!run}'s.  [?fallback] is threaded into [stats.fallback] when
    this full solve is standing in for a refused warm start. *)

val run_incremental :
  prev:solved ->
  edits:edit_script ->
  ?new_shape:shape ->
  Config.t ->
  Framework.App.t ->
  Graph.t ->
  stats * solved
(** Warm re-solve.  [graph] must be the patched app's graph extracted
    over [prev]'s interner ([Extract.run ~interner]), [edits] the edit
    script from [shape_of_solved prev] to [shape_of_graph graph].
    Passing that same new shape as [?new_shape] saves deriving it
    again: the warm path reads its seed pairs and the result captures
    it as its [sd_shape].  Clean components' points-to sets are
    borrowed from [prev] and copied only when they grow; the relation
    rows are copied at restore.  [prev] is never written.  Falls back
    to {!run_solved} (with [stats.fallback] set) when the warm guard
    refuses: different interner, changed configuration, unknown-id
    markers, inline depth > 0, changed class hierarchy, or changed
    layout resources.  The hierarchy and layouts are compared against
    [prev]'s program and package: key by key, hashing both sides
    only where a key differs or the package is another object.  A
    changed method surface (names, arities, parameter names) keeps
    the warm path but re-solves every op whose callee resolution may
    have changed.  Not thread-safe against concurrent solves sharing
    the interner. *)
