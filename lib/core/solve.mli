(** The constraint solver (Section 4.2/4.3): graph reachability to
    propagate values, plus a fixed-point loop applying the inference
    rules at operation nodes — INFLATE1/2, ADDVIEW1/2, SETID,
    SETLISTENER, FINDVIEW1/2/3 — until no points-to set and no
    relationship edge changes. *)

type stats = {
  iterations : int;  (** operation-pass rounds until fixpoint *)
  propagations : int;  (** total worklist pops *)
  op_applications : int;
      (** op-node rule applications; the naive solver performs
          [iterations * |ops|], the interned solver only re-applies ops
          whose inputs grew *)
  delta_pushes : int;
      (** values pushed from delta sets along flow edges (interned
          solver); [0] under the naive solver *)
  desc_cache_hits : int;
      (** descendants-closure memo hits (interned solver); [0] under
          the naive solver *)
  desc_cache_misses : int;  (** descendants-closure memo misses; likewise *)
  interned_values : int;
      (** distinct abstract values hash-consed by the interned engine;
          [0] under the naive engine *)
  interned_nodes : int;  (** distinct interned locations; [0] under the naive engine *)
  bitset_words : int;
      (** words allocated across solution-set bitsets at fixpoint; [0]
          under the naive engine *)
  union_calls : int;
      (** word-level bitset unions performed on direct flow edges; [0]
          under the naive engine *)
  scc_count : int;
      (** strongly connected components of the direct-edge flow graph
          at freeze time (singletons included); [0] under the
          naive engine *)
  largest_scc : int;
      (** member count of the largest direct-edge SCC — every cycle
          this size collapses to one shared bitset; [0] under the
          naive engine *)
  ctx_count : int;
      (** distinct call-string contexts (clone numbers) minted by the
          context-keyed extraction; [0] under the naive engine or at
          inline depth 0 *)
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
      (** set when an incremental request could not warm-start (stale
          snapshot, changed configuration or hierarchy, corrupt state
          file) and a full solve ran instead; carries the reason *)
}

val run : Config.t -> Framework.App.t -> Graph.t -> stats
(** Mutates the graph's points-to sets and relations.  Safe to re-run:
    sets are reset from the seeds first.  The engine is selected by
    [config.solver]; both produce the same solution. *)

(** {1 Incremental re-analysis}

    A full solve can be captured as a {!solved}; when a patched version
    of the app is extracted over the same interner
    ([Extract.run ~interner]), {!Diff.edit_script} between the two
    {!shape}s drives {!run_incremental}: only the condensation
    components forward-reachable from the edits are re-solved, every
    other component's solution is restored by aliasing the previous
    bitsets.  The warm result is bit-identical to a from-scratch
    solve. *)

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
    {!Diff.edit_script}).  Edge kinds are in the NEW shape's
    cast-symbol space; removed edges whose cast class vanished carry a
    sentinel [<= -2]. *)
type edit_script = {
  es_removed_edges : (int * int * int) array;  (** (src, kind, dst) *)
  es_added_edges : (int * int * int) array;
  es_removed_seeds : (int * int) array;
  es_added_seeds : (int * int) array;
  es_old_to_new : int array;  (** old op index -> new, [-1] unmatched (removed) *)
  es_new_to_old : int array;  (** new op index -> old, [-1] unmatched (added) *)
}

(** Dynamic return-dependency kinds, as captured: a method-return
    location some op (or the declared-fragment pass) re-fires on when
    it grows. *)
type rd = RD_op of int | RD_frags

(** A captured solution.  The record is exposed for persistence
    ({!Snapshot}); treat every field as READ-ONLY — the bitsets are
    aliased by later warm solves and by [sd_graph]'s solution store.
    [sd_graph] carries the cold structural tables (inflations,
    declarative handlers, declared fragments, root layouts) and the
    taint rows. *)
type solved = {
  sd_config : Config.t;
  sd_app_name : string;
  sd_class_fp : string;
  sd_method_fp : string;
  sd_layout_fp : string;
  sd_package : Layouts.Package.t;
  sd_graph : Graph.t;
  sd_it : Intern.t;
  sd_node_total : int;  (** interned node count at capture *)
  sd_value_total : int;
  sd_csr_n : int;  (** nodes covered by the frozen CSR *)
  sd_row : int array;
  sd_edst : int array;
  sd_ekind : int array;
  sd_cast_names : string array;
  sd_seeds : (int * int) array;
  sd_ops : (Node.op_site * int * int array * int) array;
  sd_solution : Graph.solution;
      (** the captured rows — [sd_graph]'s solution store at capture,
          its rep map sized [sd_csr_n]; aliased, never mutated *)
  sd_sols_mask : Util.Bitset.t;  (** bits of the [Some] slots of the points-to rows *)
  sd_by_id : Util.Bitset.t option array;  (** rid sym -> view ids carrying it *)
  sd_holder_ids : int list;  (** discovery order, newest first *)
  sd_ret_deps : (int * rd) list;  (** representative -> dynamic reader *)
  sd_targets : Util.Bitset.t array;
      (** per op, plus declarative and fragment pseudo-slots at
          [|ops|] and [|ops|+1]: representatives the writer pushed
          values to (transitive across warm restarts) *)
}

val class_fp : Framework.App.t -> string
(** Fingerprint of the class hierarchy (names, kinds, supertypes);
    a mismatch with a captured solve forces a full re-solve. *)

val method_fp : Framework.App.t -> string
(** Fingerprint of the method surface (names, arities, parameter
    names); a mismatch makes resolve-dependent ops suspect but keeps
    the warm path. *)

val layout_fp : Framework.App.t -> string
(** Fingerprint of the layout resources; a mismatch forces a full
    re-solve. *)

val shape_of_graph : Graph.t -> shape

val shape_of_solved : solved -> shape

val solved_interner : solved -> Intern.t

val solved_app_name : solved -> string

val solved_config : solved -> Config.t

val solved_class_fp : solved -> string
(** Class-hierarchy fingerprint at capture; a registry reloading state
    from disk checks it against the freshly built app before trusting
    hierarchy-dependent answers (cast filtering). *)

val run_solved : ?fallback:string -> Config.t -> Framework.App.t -> Graph.t -> stats * solved
(** Full solve that also captures the solution for warm restarts.
    Always uses the interned engine regardless of [config.solver] (the
    captured state is id-level); the installed solution is identical
    either way.  [?fallback] is threaded into [stats.fallback] when
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
    Passing that same new shape as [?new_shape] lets the warm path
    reuse its seed pairs instead of re-deriving them from the graph.
    Falls back to {!run_solved} (with [stats.fallback] set) when the
    warm guard refuses: different interner, changed configuration,
    changed class hierarchy, or changed layout resources.  Not
    thread-safe against concurrent solves sharing the interner. *)

val warm_guard : solved -> Config.t -> Framework.App.t -> Graph.t -> string option
(** The reason {!run_incremental} would fall back, if any. *)
