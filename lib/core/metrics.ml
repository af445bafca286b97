type table1_row = {
  t1_app : string;
  t1_classes : int;
  t1_methods : int;
  t1_layout_ids : int;
  t1_view_ids : int;
  t1_views_inflated : int;
  t1_views_allocated : int;
  t1_listeners : int;
  t1_activities : int;
  t1_inflate_ops : int;
  t1_findview_ops : int;
  t1_addview_ops : int;
  t1_setid_ops : int;
  t1_setlistener_ops : int;
}

type solver_row = {
  sv_app : string;
  sv_ops : int;
  sv_iterations : int;
  sv_op_applications : int;
  sv_naive_equivalent : int;  (** iterations * |ops| — what the naive loop would apply *)
  sv_propagations : int;
  sv_delta_pushes : int;
  sv_desc_hits : int;
  sv_desc_misses : int;
  sv_interned_values : int;
  sv_bitset_words : int;
  sv_union_calls : int;
  sv_scc_count : int;
  sv_largest_scc : int;
  sv_ctx_count : int;  (** contexts minted by the context-keyed extraction *)
  sv_ctx_keys : int;  (** distinct ⟨node, ctx⟩ keys interned *)
  sv_warm : bool;  (** solved by the incremental (warm) path *)
  sv_dirty_comps : int;  (** components re-solved by a warm solve *)
  sv_reused_comps : int;  (** components restored by aliasing *)
  sv_fallback : string option;  (** why a requested warm start refused *)
}

type table2_row = {
  t2_app : string;
  t2_seconds : float;
  t2_receivers : float option;
  t2_parameters : float option;
  t2_results : float option;
  t2_listeners : float option;
}

let avg sizes =
  let positive = List.filter (fun n -> n > 0) sizes in
  match positive with
  | [] -> None
  | _ ->
      let total = List.fold_left ( + ) 0 positive in
      Some (float_of_int total /. float_of_int (List.length positive))

let count predicate xs = List.length (List.filter predicate xs)

let table1 (r : Analysis.t) =
  let app = r.app in
  let hierarchy = app.Framework.App.hierarchy in
  let classes, methods = Jir.Ast.program_size app.program in
  let layout_ids, view_ids = Layouts.Resource.counts (Layouts.Package.resources app.package) in
  let allocs = Graph.allocs r.graph in
  let view_allocs =
    count (fun (a : Node.alloc_site) -> Framework.Views.is_view_class hierarchy a.a_cls) allocs
  in
  let listener_allocs =
    count (fun (a : Node.alloc_site) -> Framework.Listeners.is_listener_class hierarchy a.a_cls) allocs
  in
  (* Inlining-based context sensitivity clones operation records; the
     population of Table 1 counts operation *sites*. *)
  let ops =
    List.sort_uniq
      (fun (a : Graph.op) (b : Graph.op) -> compare a.site b.site)
      (Graph.ops r.graph)
  in
  let count_kind predicate = count (fun (op : Graph.op) -> predicate op.site.o_kind) ops in
  {
    t1_app = app.name;
    t1_classes = classes;
    t1_methods = methods;
    t1_layout_ids = layout_ids;
    t1_view_ids = view_ids;
    t1_views_inflated = List.length (Graph.inflated_views r.graph);
    t1_views_allocated = view_allocs;
    t1_listeners = listener_allocs;
    t1_activities = List.length (Framework.App.activity_classes app);
    t1_inflate_ops =
      count_kind (function Framework.Api.Inflate | Framework.Api.Set_content -> true | _ -> false);
    t1_findview_ops =
      count_kind (function
        | Framework.Api.Find_view | Framework.Api.Find_one _ | Framework.Api.Get_parent -> true
        | _ -> false);
    t1_addview_ops = count_kind (function Framework.Api.Add_view -> true | _ -> false);
    t1_setid_ops = count_kind (function Framework.Api.Set_id -> true | _ -> false);
    t1_setlistener_ops = count_kind (function Framework.Api.Set_listener _ -> true | _ -> false);
  }

(* Ops whose receiver position takes views. *)
let takes_view_receiver = function
  | Framework.Api.Find_view
  | Framework.Api.Find_one _
  | Framework.Api.Add_view
  | Framework.Api.Set_id
  | Framework.Api.Set_listener _
  | Framework.Api.Get_parent ->
      true
  | Framework.Api.Inflate | Framework.Api.Set_content | Framework.Api.Start_activity
  | Framework.Api.Pass_through | Framework.Api.Fragment_add | Framework.Api.Menu_add
  | Framework.Api.Set_adapter ->
      false

(* Ops producing views. *)
let produces_views = function
  | Framework.Api.Find_view | Framework.Api.Find_one _ | Framework.Api.Inflate
  | Framework.Api.Get_parent ->
      true
  | Framework.Api.Set_content | Framework.Api.Add_view | Framework.Api.Set_id
  | Framework.Api.Set_listener _ | Framework.Api.Start_activity | Framework.Api.Pass_through
  | Framework.Api.Fragment_add | Framework.Api.Menu_add | Framework.Api.Set_adapter ->
      false

let solver_stats (r : Analysis.t) =
  let stats = r.stats in
  let op_count = List.length (Graph.ops r.graph) in
  {
    sv_app = r.app.Framework.App.name;
    sv_ops = op_count;
    sv_iterations = stats.Solve.iterations;
    sv_op_applications = stats.Solve.op_applications;
    sv_naive_equivalent = stats.Solve.iterations * op_count;
    sv_propagations = stats.Solve.propagations;
    sv_delta_pushes = stats.Solve.delta_pushes;
    sv_desc_hits = stats.Solve.desc_cache_hits;
    sv_desc_misses = stats.Solve.desc_cache_misses;
    sv_interned_values = stats.Solve.interned_values;
    sv_bitset_words = stats.Solve.bitset_words;
    sv_union_calls = stats.Solve.union_calls;
    sv_scc_count = stats.Solve.scc_count;
    sv_largest_scc = stats.Solve.largest_scc;
    sv_ctx_count = stats.Solve.ctx_count;
    sv_ctx_keys = stats.Solve.ctx_keys;
    sv_warm = stats.Solve.warm_solve;
    sv_dirty_comps = stats.Solve.dirty_comps;
    sv_reused_comps = stats.Solve.reused_comps;
    sv_fallback = stats.Solve.fallback;
  }

let table2 (r : Analysis.t) =
  let ops = Graph.ops r.graph in
  let sizes_by predicate measure =
    List.filter_map
      (fun (op : Graph.op) -> if predicate op.site.o_kind then Some (measure op) else None)
      ops
  in
  let receivers =
    sizes_by takes_view_receiver (fun op -> List.length (Analysis.op_receiver_views r op))
  in
  let parameters =
    sizes_by
      (function Framework.Api.Add_view -> true | _ -> false)
      (fun op -> List.length (Analysis.op_child_views r op))
  in
  let results = sizes_by produces_views (fun op -> List.length (Analysis.op_result_views r op)) in
  let listeners =
    sizes_by
      (function Framework.Api.Set_listener _ -> true | _ -> false)
      (fun op -> List.length (Analysis.op_listeners r op))
  in
  {
    t2_app = r.app.Framework.App.name;
    t2_seconds = r.solve_seconds;
    t2_receivers = avg receivers;
    t2_parameters = avg parameters;
    t2_results = avg results;
    t2_listeners = avg listeners;
  }
