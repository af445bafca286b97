type t = {
  app : Framework.App.t;
  config : Config.t;
  graph : Graph.t;
  stats : Solve.stats;
  solve_seconds : float;
}

let analyze ?(config = Config.default) app =
  let start = Unix.gettimeofday () in
  let graph = Extract.run config app in
  let stats = Solve.run config app graph in
  let solve_seconds = Unix.gettimeofday () -. start in
  { app; config; graph; stats; solve_seconds }

(* The rule-table reference: clone bodies inlined as program text, then
   the table interpreted round by round to its fixpoint. *)
let reference ?interner ?(config = Config.default) app =
  let start = Unix.gettimeofday () in
  let graph = Extract.run_inlined ?interner config app in
  let r = Rules.run config app graph in
  let solve_seconds = Unix.gettimeofday () -. start in
  let stats =
    {
      Solve.iterations = r.iterations;
      propagations = r.propagations;
      op_applications = r.op_applications;
      delta_pushes = 0;
      desc_cache_hits = 0;
      desc_cache_misses = 0;
      interned_values = 0;
      interned_nodes = 0;
      bitset_words = 0;
      union_calls = 0;
      scc_count = 0;
      largest_scc = 0;
      ctx_count = 0;
      ctx_keys = 0;
      warm_solve = false;
      dirty_comps = 0;
      reused_comps = 0;
      fallback = None;
      taint_rounds = 0;
      taint_propagations = 0;
      taint_op_applications = 0;
    }
  in
  { app; config; graph; stats; solve_seconds }

let make ~app ~config ~graph ~stats ~solve_seconds = { app; config; graph; stats; solve_seconds }

let var ~cls ~meth ~arity v =
  Node.N_var ({ Node.mid_cls = cls; mid_name = meth; mid_arity = arity }, v)

let values_at t node = Graph.VS.elements (Graph.set_of t.graph node)

let views_at t node = Graph.views_of t.graph node

let flows_to t value node = Graph.VS.mem value (Graph.set_of t.graph node)

let ops t = Graph.ops t.graph

let ops_of_kind t predicate =
  List.filter (fun (op : Graph.op) -> predicate op.site.o_kind) (ops t)

let op_receiver_views t (op : Graph.op) = Graph.views_of t.graph op.op_recv

let op_child_views t (op : Graph.op) =
  match op.op_args with [] -> [] | arg :: _ -> Graph.views_of t.graph arg

let op_result_views t (op : Graph.op) =
  match op.op_out with Some node -> Graph.views_of t.graph node | None -> []

let op_listeners t (op : Graph.op) =
  match (op.site.o_kind, op.op_args) with
  | Framework.Api.Set_listener iface, arg :: _ ->
      let implements cls =
        Jir.Hierarchy.subtype t.app.hierarchy cls iface.Framework.Listeners.i_name
      in
      Graph.VS.fold
        (fun v acc ->
          match v with
          | Node.V_obj site when implements site.a_cls -> Node.L_alloc site :: acc
          | Node.V_act a when implements a -> Node.L_act a :: acc
          | _ -> acc)
        (Graph.set_of t.graph arg) []
  | _ -> []

let views_with_id t name =
  match Layouts.Resource.find_view_id (Layouts.Package.resources t.app.package) name with
  | None -> []
  | Some id ->
      (* a view whose id came from [SetId (v, ⊤)] carries the sentinel
         and may be any id, so it matches every concrete name *)
      let it = Graph.interner t.graph in
      let syms = List.filter_map (Intern.rid_opt it) [ id; Node.top_view_id_raw ] in
      let acc = ref [] in
      Array.iteri
        (fun wid row ->
          match row with
          | Some b when List.exists (Util.Bitset.mem b) syms -> acc := Intern.view_of it wid :: !acc
          | _ -> ())
        (Graph.solution t.graph).Graph.sol_ids;
      List.sort Node.compare_view !acc

(* Counted on the store's rows, without decoding: every location with
   a non-empty set is an interned node, and taint rows are subsets. *)
let pollution t =
  let sol = Graph.solution t.graph in
  let non_empty = function Some b -> not (Util.Bitset.is_empty b) | None -> false in
  let polluted = ref 0 and nonempty = ref 0 in
  for nid = 0 to Intern.node_count (Graph.interner t.graph) - 1 do
    if non_empty (Graph.points_to_row sol nid) then begin
      incr nonempty;
      if non_empty (Graph.row sol.Graph.sol_taints nid) then incr polluted
    end
  done;
  (!polluted, !nonempty)

let roots_of_activity t activity =
  Graph.View_set.elements (Graph.roots_of_holder t.graph (Node.H_act activity))

let views_of_holder t holder =
  let it = Graph.interner t.graph in
  match Intern.find_holder it holder with
  | None -> []
  | Some hid ->
      List.sort Node.compare_view
        (Util.Bitset.fold
           (fun wid acc -> Intern.view_of it wid :: acc)
           (Graph.holder_views (Graph.solution t.graph) hid)
           [])

let listeners_of_view t view = Graph.Listener_set.elements (Graph.listeners_of_view t.graph view)

type interaction = {
  ix_activity : string;
  ix_view : Node.view_abs;
  ix_event : Framework.Listeners.event;
  ix_listener : Node.listener_abs;
  ix_handler : Node.mid;
}

let interactions t =
  let hierarchy = t.app.Framework.App.hierarchy in
  (* every content holder contributes tuples: activities under their
     class name, dialogs (extension) under the dialog class *)
  let tuples_for_holder ~label holder_views =
    List.concat_map
      (fun view ->
        List.concat_map
          (fun (listener, iface_name) ->
            match Framework.Listeners.by_name iface_name with
            | None -> []
            | Some iface ->
                let listener_cls =
                  match listener with Node.L_alloc s -> s.Node.a_cls | Node.L_act a -> a
                in
                List.filter_map
                  (fun (h : Framework.Listeners.handler) ->
                    match
                      Jir.Hierarchy.resolve hierarchy listener_cls
                        { Jir.Ast.mk_name = h.h_name; mk_arity = h.h_arity }
                    with
                    | Some (owner, m) ->
                        Some
                          {
                            ix_activity = label;
                            ix_view = view;
                            ix_event = iface.i_event;
                            ix_listener = listener;
                            ix_handler = Node.mid_of_meth owner m;
                          }
                    | None -> None)
                  iface.Framework.Listeners.i_handlers)
          (listeners_of_view t view))
      holder_views
  in
  let activity_tuples =
    List.concat_map
      (fun (cls : Jir.Ast.cls) ->
        tuples_for_holder ~label:cls.c_name (views_of_holder t (Node.H_act cls.c_name)))
      (Framework.App.activity_classes t.app)
  in
  let dialog_tuples =
    List.concat_map
      (fun holder ->
        match holder with
        | Node.H_dialog site ->
            tuples_for_holder ~label:site.Node.a_cls (views_of_holder t holder)
        | Node.H_act _ -> [])
      (Graph.holders t.graph)
  in
  (* declarative android:onClick handlers: the holder is its own
     listener and the handler is the named method *)
  let declarative_tuples =
    List.concat_map
      (fun holder ->
        let label, listener =
          match holder with
          | Node.H_act a -> (a, Node.L_act a)
          | Node.H_dialog site -> (site.Node.a_cls, Node.L_alloc site)
        in
        List.filter_map
          (fun view ->
            Option.bind (Inflate.onclick t.app.package view) (fun handler_name ->
                let handler = { Jir.Ast.mk_name = handler_name; mk_arity = 1 } in
                Jir.Hierarchy.resolve hierarchy label handler
                |> Option.map (fun (owner, m) ->
                       {
                         ix_activity = label;
                         ix_view = view;
                         ix_event = Framework.Listeners.Click;
                         ix_listener = listener;
                         ix_handler = Node.mid_of_meth owner m;
                       })))
          (views_of_holder t holder))
      (Graph.holders t.graph)
  in
  activity_tuples @ dialog_tuples @ declarative_tuples

(* STARTACTIVITY read over the solved sets: the activities at each
   [startActivity] receiver, paired with the activities and
   activity-class objects at its intent argument. *)
let transitions t =
  let hierarchy = t.app.Framework.App.hierarchy in
  let classes keep node = List.filter_map keep (Graph.VS.elements (Graph.set_of t.graph node)) in
  let activity = function Node.V_act a -> Some a | _ -> None in
  let target = function
    | Node.V_obj s when Framework.Views.is_activity_class hierarchy s.Node.a_cls -> Some s.a_cls
    | v -> activity v
  in
  List.concat_map
    (fun (op : Graph.op) ->
      match (op.site.o_kind, op.op_args) with
      | Framework.Api.Start_activity, intent :: _ ->
          let targets = classes target intent in
          List.concat_map (fun a -> List.map (fun b -> (a, b)) targets) (classes activity op.op_recv)
      | _ -> [])
    (ops t)
  |> List.sort_uniq compare

let pp_interaction ppf ix =
  Fmt.pf ppf "(%s, %a, %s, %a)" ix.ix_activity Node.pp_view ix.ix_view
    (Framework.Listeners.event_name ix.ix_event)
    Node.pp_mid ix.ix_handler

let pp_summary ppf t =
  let op_count = List.length (ops t) in
  let inflated = List.length (Graph.inflated_views t.graph) in
  Fmt.pf ppf
    "@[<v>app %s: %d ops, %d allocation sites, %d inflated views,@ %d locations, %d flow edges,@ \
     solved in %d rounds (%d op applications, %d propagations, %.3fs)@]"
    t.app.Framework.App.name op_count
    (List.length (Graph.allocs t.graph))
    inflated
    (List.length (Graph.locations t.graph))
    (Graph.edge_count t.graph) t.stats.Solve.iterations t.stats.Solve.op_applications
    t.stats.Solve.propagations t.solve_seconds
