(** Measurements of the analyzed apps and their solutions — the
    quantities reported in Table 1 and Table 2 of the paper. *)

(** One row of Table 1: application size and constraint-graph node
    populations. *)
type table1_row = {
  t1_app : string;
  t1_classes : int;
  t1_methods : int;
  t1_layout_ids : int;  (** "ids (L)" *)
  t1_view_ids : int;  (** "ids (V)" *)
  t1_views_inflated : int;  (** "views (I)" — inflated view nodes *)
  t1_views_allocated : int;  (** "views (A)" — view allocation sites *)
  t1_listeners : int;  (** listener allocation sites *)
  t1_activities : int;
  t1_inflate_ops : int;  (** Inflate + SetContent(int) operation nodes *)
  t1_findview_ops : int;  (** FindView + FindOne operation nodes *)
  t1_addview_ops : int;
  t1_setid_ops : int;
  t1_setlistener_ops : int;
}

(** One row of Table 2: running time and average solution-set sizes.
    [None] encodes the paper's "-" (no such operations). *)
type table2_row = {
  t2_app : string;
  t2_seconds : float;
      (** {!Analysis.t.solve_seconds}: extraction plus solving, not the
          front end or the metrics *)
  t2_receivers : float option;
      (** avg views reaching an operation's receiver position *)
  t2_parameters : float option;  (** avg views reaching AddView as the child *)
  t2_results : float option;  (** avg views output from view-producing ops *)
  t2_listeners : float option;  (** avg listeners reaching a SetListener op *)
}

(** Solver work counters for one analyzed app — the evidence that the
    interned engine's semi-naive schedule does strictly less work than
    naive re-iteration. *)
type solver_row = {
  sv_app : string;
  sv_ops : int;
  sv_iterations : int;
  sv_op_applications : int;
  sv_naive_equivalent : int;
      (** iterations * |ops| — what the naive loop would apply *)
  sv_propagations : int;
  sv_delta_pushes : int;
  sv_desc_hits : int;
  sv_desc_misses : int;
  sv_interned_values : int;  (** distinct abstract values hash-consed *)
  sv_bitset_words : int;  (** words allocated across solution bitsets *)
  sv_union_calls : int;  (** word-level unions on direct flow edges *)
  sv_scc_count : int;  (** direct-edge flow SCCs at freeze *)
  sv_largest_scc : int;  (** largest direct-edge SCC *)
  sv_ctx_count : int;
      (** call-string contexts minted by the context-keyed extraction;
          [0] at inline depth 0 *)
  sv_ctx_keys : int;  (** distinct ⟨node, ctx⟩ keys interned; [0] likewise *)
  sv_warm : bool;  (** solved by the incremental (warm) path *)
  sv_dirty_comps : int;  (** components re-solved by a warm solve; [0] when cold *)
  sv_reused_comps : int;  (** components restored by aliasing; [0] when cold *)
  sv_fallback : string option;
      (** the reason a requested warm start fell back to a full solve *)
}

val table1 : Analysis.t -> table1_row

val table2 : Analysis.t -> table2_row

val solver_stats : Analysis.t -> solver_row

val avg : int list -> float option
(** Mean of the positive entries; [None] when there are none.
    Operations whose solution set is empty (unreachable/uninstantiated
    code) do not dilute the average. *)
