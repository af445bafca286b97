(* The solver (Section 4.2/4.3).  Two engines reach one fixpoint: the
   naive reference re-applies every rule over structural sets, the
   interned production engine runs semi-naively over dense ids.  Either
   way the result lands in one place, the graph's id-level solution
   store ([Graph.solution]): the interned engine installs its own
   bitset rows, the naive engine encodes its structural tables once at
   fixpoint.  The taint pass then runs once over that store, and a
   capturing solve ([run_solved]/[run_incremental]) persists the same
   rows as a [solved]. *)

type stats = {
  iterations : int;
  propagations : int;
  op_applications : int;
  delta_pushes : int;
  desc_cache_hits : int;
  desc_cache_misses : int;
  interned_values : int;  (** distinct interned abstract values (interned solver, else 0) *)
  interned_nodes : int;  (** distinct interned locations (interned solver, else 0) *)
  bitset_words : int;  (** words allocated across solution-set bitsets (interned solver, else 0) *)
  union_calls : int;  (** word-level bitset union calls on direct edges (interned solver, else 0) *)
  scc_count : int;  (** direct-edge flow SCCs at freeze time (interned solver, else 0) *)
  largest_scc : int;  (** members in the largest direct-edge SCC (interned solver, else 0) *)
  ctx_count : int;
      (** distinct call-string contexts (clone numbers) minted by the
          context-keyed extraction (interned solver at inline depth
          > 0, else 0) *)
  ctx_keys : int;  (** distinct ⟨node, ctx⟩ keys interned (ditto) *)
  warm_solve : bool;  (** solved incrementally from a previous solution *)
  dirty_comps : int;  (** condensation components invalidated by the edit script (warm solves) *)
  reused_comps : int;  (** components whose solution sets were restored by aliasing (warm solves) *)
  fallback : string option;
      (** why an incremental request fell back to a full solve, if it did *)
}

(* Can a value pass through a cast to [cls]?  Sound filtering: the
   abstract object's dynamic class is known exactly, so the cast
   succeeds iff it is a subtype of [cls].  Unknown classes pass. *)
let passes_cast hierarchy cls value =
  let compatible c = (not (Jir.Hierarchy.mem hierarchy c)) || Jir.Hierarchy.subtype hierarchy c cls in
  if not (Jir.Hierarchy.mem hierarchy cls) then true
  else
    match value with
    | Node.V_view v -> compatible (Node.class_of_view v)
    | Node.V_obj a -> compatible a.a_cls
    | Node.V_act a -> compatible a
    | Node.V_layout_id _ | Node.V_view_id _ -> false
    | Node.V_layout_top | Node.V_view_id_top -> false

(* The naive reference keeps its solution in structural tables of its
   own and encodes it into the graph's store once, at fixpoint. *)
type state = {
  config : Config.t;
  app : Framework.App.t;
  graph : Graph.t;
  worklist : Node.t Util.Worklist.t;
  sets : (Node.t, Graph.VS.t) Hashtbl.t;
  children : (Node.view_abs, Graph.View_set.t) Hashtbl.t;
  parents : (Node.view_abs, Graph.View_set.t) Hashtbl.t;
  ids : (Node.view_abs, Graph.Int_set.t) Hashtbl.t;
  roots : (Node.holder, Graph.View_set.t) Hashtbl.t;
  listeners : (Node.view_abs, Graph.Listener_set.t) Hashtbl.t;
  mutable propagations : int;
  mutable op_applications : int;
  mutable dirty : bool;  (** a set or relation grew during the current op pass *)
}

let find_set tbl key ~default = Option.value (Hashtbl.find_opt tbl key) ~default

let set_of state node = find_set state.sets node ~default:Graph.VS.empty

(* Set-valued table update returning whether it grew ([Set.add]
   returns its argument physically when the element is present). *)
let add_to (type s elt) (module S : Set.S with type t = s and type elt = elt) tbl key v =
  let existing = find_set tbl key ~default:S.empty in
  let updated = S.add v existing in
  if updated == existing then false
  else begin
    Hashtbl.replace tbl key updated;
    true
  end

let add_value state node value = add_to (module Graph.VS) state.sets node value

let children_of state view = find_set state.children view ~default:Graph.View_set.empty

let parents_of state view = find_set state.parents view ~default:Graph.View_set.empty

let add_child state ~parent ~child =
  let grew = add_to (module Graph.View_set) state.children parent child in
  if grew then ignore (add_to (module Graph.View_set) state.parents child parent);
  grew

let descendants state ~include_self view =
  let visited = ref (if include_self then Graph.View_set.singleton view else Graph.View_set.empty) in
  let queue = Queue.create () in
  Queue.add view queue;
  while not (Queue.is_empty queue) do
    Graph.View_set.iter
      (fun child ->
        if not (Graph.View_set.mem child !visited) then begin
          visited := Graph.View_set.add child !visited;
          Queue.add child queue
        end)
      (children_of state (Queue.take queue))
  done;
  !visited

let ids_of_view state view = find_set state.ids view ~default:Graph.Int_set.empty

let add_view_id state view id = add_to (module Graph.Int_set) state.ids view id

let roots_of_holder state holder = find_set state.roots holder ~default:Graph.View_set.empty

let add_holder_root state holder root = add_to (module Graph.View_set) state.roots holder root

let add_view_listener state view listener ~iface =
  add_to (module Graph.Listener_set) state.listeners view (listener, iface)

let push_value state node value =
  if add_value state node value then begin
    Util.Worklist.add state.worklist node;
    state.dirty <- true
  end

let mark state changed = if changed then state.dirty <- true

(* Worklist propagation of points-to sets along flow edges, pushing
   full sets (naive solver). *)
let propagate_full state =
  let hierarchy = state.app.Framework.App.hierarchy in
  Util.Worklist.drain state.worklist (fun node ->
      state.propagations <- state.propagations + 1;
      let values = set_of state node in
      List.iter
        (fun (kind, dst) ->
          Graph.VS.iter
            (fun value ->
              let passes =
                match kind with
                | Graph.E_direct -> true
                | Graph.E_cast cls -> passes_cast hierarchy cls value
              in
              if passes && add_value state dst value then Util.Worklist.add state.worklist dst)
            values)
        (Graph.succs state.graph node))

(* Values at the argument location of an op, view-id constants only. *)
let view_ids_at state node =
  Graph.VS.fold
    (fun v acc -> match v with Node.V_view_id id -> id :: acc | _ -> acc)
    (set_of state node) []

let layout_ids_at state node =
  Graph.VS.fold
    (fun v acc -> match v with Node.V_layout_id id -> id :: acc | _ -> acc)
    (set_of state node) []

let views_at state node =
  Graph.VS.fold
    (fun v acc -> match Node.view_of_value v with Some view -> view :: acc | None -> acc)
    (set_of state node) []

let holders state = Hashtbl.fold (fun h _ acc -> h :: acc) state.roots []

(* Unknown-id markers at an op input ([Inflate(⊤)] / [FindView(v, ⊤)]
   / [SetId(v, ⊤)]). *)
let top_layout_at state node = Graph.VS.mem Node.V_layout_top (set_of state node)

let top_view_id_at state node = Graph.VS.mem Node.V_view_id_top (set_of state node)

(* Every [R.layout] id of the package: a ⊤ layout argument may name any
   of them (reflection, computed resource names). *)
let all_layout_ids state =
  let package = state.app.Framework.App.package in
  let resources = Layouts.Package.resources package in
  List.filter_map
    (fun (def : Layouts.Layout.def) -> Layouts.Resource.find_layout_id resources def.name)
    (Layouts.Package.layouts package)

(* Content holders among the values at a location: activities, plus
   dialog objects when the extension is enabled. *)
let holders_at state node =
  Graph.VS.fold
    (fun v acc ->
      match v with
      | Node.V_act a -> Node.H_act a :: acc
      | Node.V_obj site
        when state.config.Config.model_dialogs
             && Framework.Views.is_dialog_class state.app.hierarchy site.a_cls ->
          Node.H_dialog site :: acc
      | _ -> acc)
    (set_of state node) []

(* Listener objects among the values at a location, restricted to
   those actually implementing the interface being registered. *)
let listeners_at state iface node =
  let implements cls =
    Jir.Hierarchy.subtype state.app.Framework.App.hierarchy cls iface.Framework.Listeners.i_name
  in
  Graph.VS.fold
    (fun v acc ->
      match v with
      | Node.V_obj site when implements site.a_cls -> Node.L_alloc site :: acc
      | Node.V_view view when implements (Node.class_of_view view) ->
          (* custom view classes can be their own listeners *)
          (match view with
          | Node.V_alloc site -> Node.L_alloc site :: acc
          | Node.V_infl _ -> acc)
      | Node.V_act a when implements a -> Node.L_act a :: acc
      | _ -> acc)
    (set_of state node) []

let inflate_at state ~site lid =
  let package = state.app.Framework.App.package in
  match Layouts.Package.find_by_layout_id package lid with
  | None -> None
  | Some def ->
      let views, facts =
        Inflate.instantiate state.graph
          ~resources:(Layouts.Package.resources package)
          ~site def
      in
      Option.iter
        (fun (f : Inflate.facts) ->
          List.iter (fun (view, id) -> ignore (add_view_id state view id)) f.view_ids;
          List.iter (fun (parent, child) -> ignore (add_child state ~parent ~child)) f.children;
          state.dirty <- true)
        facts;
      Some (Inflate.root views)

(* The implicit callback of SETLISTENER: for handler [n] of the
   listener's class, inject listener -> this_n and view -> view-param_n
   (the [y.n(x)] modeling at the end of Section 3). *)
let inject_handler_flows state view listener iface =
  let hierarchy = state.app.Framework.App.hierarchy in
  let cls, listener_value =
    match listener with
    | Node.L_alloc site -> (site.Node.a_cls, Node.V_obj site)
    | Node.L_act a -> (a, Node.V_act a)
  in
  List.iter
    (fun (h : Framework.Listeners.handler) ->
      match
        Jir.Hierarchy.resolve hierarchy cls { Jir.Ast.mk_name = h.h_name; mk_arity = h.h_arity }
      with
      | Some (owner, m) ->
          let tmid = Node.mid_of_meth owner m in
          push_value state (Node.N_var (tmid, Jir.Ast.this_var)) listener_value;
          (match h.h_view_param with
          | Some k -> (
              match List.nth_opt m.m_params k with
              | Some (param, _) -> push_value state (Node.N_var (tmid, param)) (Node.V_view view)
              | None -> ())
          | None -> ());
          (* adapter-view events: the item parameter receives the
             registered view's children (item views) *)
          (match h.h_item_param with
          | Some k -> (
              match List.nth_opt m.m_params k with
              | Some (param, _) ->
                  Graph.View_set.iter
                    (fun child ->
                      push_value state (Node.N_var (tmid, param)) (Node.V_view child))
                    (children_of state view)
              | None -> ())
          | None -> ())
      | None -> ())
    iface.Framework.Listeners.i_handlers

(* find(view, id): descendants (reflexively) of the receiver carrying
   the id — rule FINDVIEW1's [ancestorOf] + [=> id] conditions. *)
let find_in_hierarchy state root id =
  let scope = descendants state ~include_self:true root in
  let carrying id =
    Graph.View_set.filter (fun w -> Graph.Int_set.mem id (ids_of_view state w)) scope
  in
  (* A view whose id row carries the ⊤ sentinel (SetId(v, ⊤)) matches
     any queried id.  The sentinel only enters rows on ⊤ graphs, so
     non-⊤ apps take the unchanged fast path. *)
  if Graph.has_top state.graph then
    Graph.View_set.union (carrying id) (carrying Node.top_view_id_raw)
  else carrying id

(* FindView(v, ⊤): the query may name any id, so it resolves to every
   view in scope carrying at least one id. *)
let find_any_id state root =
  Graph.View_set.filter
    (fun w -> not (Graph.Int_set.is_empty (ids_of_view state w)))
    (descendants state ~include_self:true root)

let apply_op state (op : Graph.op) =
  let g = state.graph in
  let out value = Option.iter (fun node -> push_value state node value) op.op_out in
  let out_view view = out (Node.V_view view) in
  match op.site.o_kind with
  | Framework.Api.Inflate ->
      let arg0 = List.nth_opt op.op_args 0 in
      Option.iter
        (fun arg ->
          let lids = layout_ids_at state arg in
          (* Inflate(⊤): the unresolved id may name any layout. *)
          let lids = if top_layout_at state arg then all_layout_ids state @ lids else lids in
          List.iter
            (fun lid ->
              match inflate_at state ~site:op.site.o_site lid with
              | Some root ->
                  mark state (Graph.add_root_layout g root lid);
                  out_view root;
                  (* inflate(id, parent): the new hierarchy may be
                     attached to the given container. *)
                  (match List.nth_opt op.op_args 1 with
                  | Some parent_arg ->
                      List.iter
                        (fun parent -> mark state (add_child state ~parent ~child:root))
                        (views_at state parent_arg)
                  | None -> ())
              | None -> ())
            lids)
        arg0
  | Framework.Api.Set_content ->
      let holders = holders_at state op.op_recv in
      Option.iter
        (fun arg ->
          (* setContentView(int): rule INFLATE2 *)
          let lids = layout_ids_at state arg in
          let lids = if top_layout_at state arg then all_layout_ids state @ lids else lids in
          List.iter
            (fun lid ->
              match inflate_at state ~site:op.site.o_site lid with
              | Some root ->
                  mark state (Graph.add_root_layout g root lid);
                  List.iter (fun h -> mark state (add_holder_root state h root)) holders
              | None -> ())
            lids;
          (* setContentView(View): rule ADDVIEW1 *)
          List.iter
            (fun view -> List.iter (fun h -> mark state (add_holder_root state h view)) holders)
            (views_at state arg))
        (List.nth_opt op.op_args 0)
  | Framework.Api.Add_view ->
      Option.iter
        (fun arg ->
          List.iter
            (fun parent ->
              List.iter
                (fun child -> mark state (add_child state ~parent ~child))
                (views_at state arg))
            (views_at state op.op_recv))
        (List.nth_opt op.op_args 0)
  | Framework.Api.Set_id ->
      Option.iter
        (fun arg ->
          let ids = view_ids_at state arg in
          (* SetId(v, ⊤): record the sentinel; such a row matches any
             later query (see [find_in_hierarchy]). *)
          let ids = if top_view_id_at state arg then Node.top_view_id_raw :: ids else ids in
          List.iter
            (fun view -> List.iter (fun id -> mark state (add_view_id state view id)) ids)
            (views_at state op.op_recv))
        (List.nth_opt op.op_args 0)
  | Framework.Api.Set_listener iface ->
      Option.iter
        (fun arg ->
          List.iter
            (fun view ->
              List.iter
                (fun listener ->
                  mark state
                    (add_view_listener state view listener ~iface:iface.Framework.Listeners.i_name);
                  if state.config.Config.listener_callbacks then
                    inject_handler_flows state view listener iface)
                (listeners_at state iface arg))
            (views_at state op.op_recv))
        (List.nth_opt op.op_args 0)
  | Framework.Api.Find_view ->
      Option.iter
        (fun arg ->
          (* FINDVIEW1 starts from receiver views; FINDVIEW2 from the
             roots of receiver activities/dialogs. *)
          let over_scope find =
            List.iter
              (fun v -> Graph.View_set.iter out_view (find v))
              (views_at state op.op_recv);
            List.iter
              (fun h ->
                Graph.View_set.iter
                  (fun root -> Graph.View_set.iter out_view (find root))
                  (roots_of_holder state h))
              (holders_at state op.op_recv)
          in
          List.iter
            (fun id -> over_scope (fun root -> find_in_hierarchy state root id))
            (view_ids_at state arg);
          if top_view_id_at state arg then over_scope (fun root -> find_any_id state root))
        (List.nth_opt op.op_args 0)
  | Framework.Api.Find_one scope ->
      List.iter
        (fun v ->
          let results =
            match scope with
            | Framework.Api.Children when state.config.Config.findone_refinement ->
                children_of state v
            | Framework.Api.Children | Framework.Api.Descendants ->
                descendants state ~include_self:false v
          in
          Graph.View_set.iter out_view results)
        (views_at state op.op_recv)
  | Framework.Api.Get_parent ->
      List.iter
        (fun v -> Graph.View_set.iter out_view (parents_of state v))
        (views_at state op.op_recv)
  | Framework.Api.Pass_through ->
      (* the result stands for the receiver (e.g. a fragment manager
         for its activity) *)
      Graph.VS.iter (fun value -> out value) (set_of state op.op_recv)
  | Framework.Api.Fragment_add ->
      (* Fragment extension: the fragment's onCreateView callback runs
         and its resulting views are attached under the views carrying
         the container id in the activity's hierarchy. *)
      let hierarchy = state.app.Framework.App.hierarchy in
      let fragments =
        match op.op_args with
        | _ :: frag_arg :: _ ->
            Graph.VS.fold
              (fun v acc ->
                match v with
                | Node.V_obj site when Framework.Views.is_fragment_class hierarchy site.a_cls ->
                    site :: acc
                | _ -> acc)
              (set_of state frag_arg) []
        | _ -> []
      in
      let container_ids =
        match op.op_args with id_arg :: _ -> view_ids_at state id_arg | [] -> []
      in
      let top_container =
        match op.op_args with id_arg :: _ -> top_view_id_at state id_arg | [] -> false
      in
      let containers =
        List.concat_map
          (fun h ->
            Graph.View_set.fold
              (fun root acc ->
                let acc =
                  if top_container then Graph.View_set.elements (find_any_id state root) @ acc
                  else acc
                in
                List.fold_left
                  (fun acc id -> Graph.View_set.elements (find_in_hierarchy state root id) @ acc)
                  acc container_ids)
              (roots_of_holder state h) [])
          (holders_at state op.op_recv)
      in
      List.iter
        (fun (fragment : Node.alloc_site) ->
          match
            Jir.Hierarchy.resolve hierarchy fragment.a_cls
              { Jir.Ast.mk_name = "onCreateView"; mk_arity = 0 }
          with
          | Some (owner, m) ->
              let tmid = Node.mid_of_meth owner m in
              push_value state (Node.N_var (tmid, Jir.Ast.this_var)) (Node.V_obj fragment);
              let created = views_at state (Node.N_ret tmid) in
              List.iter
                (fun parent ->
                  List.iter
                    (fun child -> mark state (add_child state ~parent ~child))
                    created)
                containers
          | None -> ())
        fragments
  | Framework.Api.Menu_add ->
      (* Menu extension: mint a MenuItem per site, attach it under each
         receiver menu, and feed the owning activity's
         onOptionsItemSelected callback with it. *)
      let hierarchy = state.app.Framework.App.hierarchy in
      let item = Node.V_alloc (Node.menu_item_site op.site.o_site) in
      List.iter
        (fun menu ->
          if Jir.Hierarchy.subtype hierarchy (Node.class_of_view menu) "Menu" then begin
            mark state (add_child state ~parent:menu ~child:item);
            out_view item;
            (* add(group, itemId, order, title): the item id *)
            (match op.op_args with
            | _ :: id_arg :: _ ->
                let ids = view_ids_at state id_arg in
                let ids =
                  if top_view_id_at state id_arg then Node.top_view_id_raw :: ids else ids
                in
                List.iter (fun id -> mark state (add_view_id state item id)) ids
            | _ -> ());
            match menu with
            | Node.V_alloc site -> (
                match Node.menu_owner site with
                | Some activity -> (
                    match
                      Jir.Hierarchy.resolve hierarchy activity
                        {
                          Jir.Ast.mk_name = fst Framework.Lifecycle.on_options_item_selected;
                          mk_arity = snd Framework.Lifecycle.on_options_item_selected;
                        }
                    with
                    | Some (owner, m) -> (
                        let tmid = Node.mid_of_meth owner m in
                        match m.m_params with
                        | (param, _) :: _ ->
                            push_value state (Node.N_var (tmid, param)) (Node.V_view item)
                        | [] -> ())
                    | None -> ())
                | None -> ())
            | Node.V_infl _ -> ()
          end)
        (views_at state op.op_recv)
  | Framework.Api.Set_adapter ->
      (* Adapter extension: run the adapter's getView callback and make
         its returned views children of the adapter view. *)
      let hierarchy = state.app.Framework.App.hierarchy in
      let adapters =
        match op.op_args with
        | arg :: _ ->
            Graph.VS.fold
              (fun v acc ->
                match v with
                | Node.V_obj site when Jir.Hierarchy.subtype hierarchy site.a_cls "Adapter" ->
                    site :: acc
                | _ -> acc)
              (set_of state arg) []
        | [] -> []
      in
      List.iter
        (fun view ->
          List.iter
            (fun (adapter : Node.alloc_site) ->
              match
                Jir.Hierarchy.resolve hierarchy adapter.a_cls
                  { Jir.Ast.mk_name = "getView"; mk_arity = 3 }
              with
              | Some (owner, m) ->
                  let tmid = Node.mid_of_meth owner m in
                  push_value state (Node.N_var (tmid, Jir.Ast.this_var)) (Node.V_obj adapter);
                  (* parent parameter is the adapter view *)
                  (match List.nth_opt m.m_params 2 with
                  | Some (param, _) ->
                      push_value state (Node.N_var (tmid, param)) (Node.V_view view)
                  | None -> ());
                  List.iter
                    (fun child -> mark state (add_child state ~parent:view ~child))
                    (views_at state (Node.N_ret tmid))
              | None -> ())
            adapters)
        (views_at state op.op_recv)
  | Framework.Api.Start_activity ->
      (* Extension: inter-component control flow.  Sources are the
         activities the call may execute on; targets are the activity
         tokens reaching the argument. *)
      let hierarchy = state.app.Framework.App.hierarchy in
      let sources =
        Graph.VS.fold
          (fun v acc -> match v with Node.V_act a -> a :: acc | _ -> acc)
          (set_of state op.op_recv) []
      in
      let targets =
        match op.op_args with
        | [] -> []
        | arg :: _ ->
            Graph.VS.fold
              (fun v acc ->
                match v with
                | Node.V_obj site when Framework.Views.is_activity_class hierarchy site.a_cls ->
                    site.a_cls :: acc
                | Node.V_act a -> a :: acc
                | _ -> acc)
              (set_of state arg) []
      in
      List.iter
        (fun from_ ->
          List.iter (fun to_ -> mark state (Graph.add_transition g ~from_ ~to_)) targets)
        sources

(* Declarative listeners (android:onClick): views in a holder's
   hierarchy carrying an onClick handler name behave as if the holder
   registered itself as an OnClickListener whose handler is that
   method. *)
let register_declarative state holder view =
  let hierarchy = state.app.Framework.App.hierarchy in
  let label = match holder with Node.H_act a -> a | Node.H_dialog site -> site.Node.a_cls in
  List.iter
    (fun handler_name ->
      match
        Jir.Hierarchy.resolve hierarchy label { Jir.Ast.mk_name = handler_name; mk_arity = 1 }
      with
      | Some (owner, m) ->
          let listener =
            match holder with
            | Node.H_act a -> Node.L_act a
            | Node.H_dialog site -> Node.L_alloc site
          in
          mark state (add_view_listener state view listener ~iface:"OnClickListener");
          if state.config.Config.listener_callbacks then begin
            let tmid = Node.mid_of_meth owner m in
            push_value state
              (Node.N_var (tmid, Jir.Ast.this_var))
              (match holder with
              | Node.H_act a -> Node.V_act a
              | Node.H_dialog site -> Node.V_obj site);
            match m.m_params with
            | (param, _) :: _ -> push_value state (Node.N_var (tmid, param)) (Node.V_view view)
            | [] -> ()
          end
      | None -> ())
    (Graph.onclicks_of state.graph view)

let apply_declarative_handlers state =
  List.iter
    (fun holder ->
      Graph.View_set.iter
        (fun root ->
          Graph.View_set.iter
            (fun view -> register_declarative state holder view)
            (descendants state ~include_self:true root))
        (roots_of_holder state holder))
    (holders state)

(* Declaratively placed fragments (<fragment android:name="F"/>): the
   platform instantiates F during inflation and attaches the views
   returned by F.onCreateView under the placeholder node. *)
let apply_declared_fragments state =
  let g = state.graph in
  let hierarchy = state.app.Framework.App.hierarchy in
  List.iter
    (fun view ->
      match view with
      | Node.V_infl infl ->
          List.iter
            (fun cls ->
              match
                Jir.Hierarchy.resolve hierarchy cls
                  { Jir.Ast.mk_name = "onCreateView"; mk_arity = 0 }
              with
              | Some (owner, m) ->
                  let fragment = Node.declared_fragment_site cls infl in
                  let tmid = Node.mid_of_meth owner m in
                  push_value state (Node.N_var (tmid, Jir.Ast.this_var)) (Node.V_obj fragment);
                  List.iter
                    (fun child -> mark state (add_child state ~parent:view ~child))
                    (views_at state (Node.N_ret tmid))
              | None -> ())
            (Graph.declared_fragments_of g view)
      | Node.V_alloc _ -> ())
    (Graph.views_with_declared_fragments g)

let seed_and_count state =
  List.iter
    (fun (node, values) -> Graph.VS.iter (fun v -> push_value state node v) values)
    (Graph.seeds state.graph)

(* Encode the structural fixpoint into the graph's store — every node
   its own representative — interning whatever the solve reached that
   extraction never named (handler parameters injected by value). *)
let encode state =
  let it = Graph.interner state.graph in
  let rows tbl key fold member =
    let entries =
      Hashtbl.fold
        (fun k s acc ->
          let b = Util.Bitset.create () in
          fold (fun x () -> ignore (Util.Bitset.add b (member x))) s ();
          (key k, b) :: acc)
        tbl []
    in
    let a = Array.make (List.fold_left (fun n (k, _) -> max n (k + 1)) 0 entries) None in
    List.iter (fun (k, b) -> a.(k) <- Some b) entries;
    a
  in
  let view = Intern.view it in
  let sol_sets = rows state.sets (Intern.node it) Graph.VS.fold (Intern.value it) in
  let sol_children = rows state.children view Graph.View_set.fold view in
  let sol_parents = rows state.parents view Graph.View_set.fold view in
  let sol_ids = rows state.ids view Graph.Int_set.fold (Intern.rid it) in
  let sol_roots = rows state.roots (Intern.holder it) Graph.View_set.fold view in
  let sol_listeners = rows state.listeners view Graph.Listener_set.fold (Intern.listener it) in
  Graph.set_solution state.graph
    { Graph.empty_solution with sol_sets; sol_children; sol_parents; sol_ids; sol_roots; sol_listeners }

(* The reference fixed point: re-apply every op against full sets each
   round until nothing changes. *)
let run_naive state =
  seed_and_count state;
  propagate_full state;
  let ops = Graph.ops state.graph in
  let iterations = ref 0 in
  let continue_ = ref true in
  while !continue_ && !iterations < state.config.Config.max_iterations do
    incr iterations;
    state.dirty <- false;
    List.iter
      (fun op ->
        state.op_applications <- state.op_applications + 1;
        apply_op state op)
      ops;
    apply_declarative_handlers state;
    apply_declared_fragments state;
    propagate_full state;
    continue_ := state.dirty
  done;
  if !continue_ then
    Logs.warn (fun m -> m "solver hit the iteration cap (%d); result may be partial" !iterations);
  encode state;
  !iterations

(* ------------------------------------------------------------------ *)
(* Interned engine: a semi-naive fixed point over dense integer ids.
   After seeding, every op runs once; from then on an op is re-applied
   only when a location it reads grew or a relation it consults
   changed.  Ops still read full sets when applied, so the solution is
   identical to [run_naive]'s.  Every location, abstract value,
   view, listener entry and holder is hash-consed ([Intern]) when first
   seen; solution sets, delta sets and the view relations become
   [Util.Bitset] over those ids, and the (static) flow edges are frozen
   into CSR int arrays.  Ops decode ids back to structural values only
   at rule boundaries (hierarchy lookups, inflation, callbacks).  At
   fixpoint the solver's own rows become the graph's solution store
   ([isolution], no copy), and every downstream consumer (Analysis,
   Metrics, Export, Diff, tests) decodes what it reads from them, so
   it is engine-agnostic: the naive reference encodes its result into
   the same store. *)

(* Growable array of per-id bitsets; a slot is allocated on first use
   so untouched ids cost one word. *)
module Slots = struct
  type t = { mutable a : Util.Bitset.t option array }

  let create () = { a = [||] }

  let ensure t i =
    let n = Array.length t.a in
    if i >= n then begin
      let cap = max 64 (max (i + 1) (2 * n)) in
      let a = Array.make cap None in
      Array.blit t.a 0 a 0 n;
      t.a <- a
    end

  let get t i =
    ensure t i;
    match t.a.(i) with
    | Some b -> b
    | None ->
        let b = Util.Bitset.create () in
        t.a.(i) <- Some b;
        b

  let find t i = if i < Array.length t.a then t.a.(i) else None

  let set t i b =
    ensure t i;
    t.a.(i) <- Some b

  (* Detach slot [i] (delta consumption): later pushes start fresh. *)
  let take t i =
    if i < Array.length t.a then begin
      let b = t.a.(i) in
      t.a.(i) <- None;
      b
    end
    else None

  let total_words t =
    Array.fold_left (fun acc o -> match o with Some b -> acc + Util.Bitset.words b | None -> acc) 0 t.a
end

type istate = {
  iconfig : Config.t;
  iapp : Framework.App.t;
  igraph : Graph.t;
  it : Intern.t;
  (* frozen flow edges, SCC-condensed CSR over the node ids assigned at
     freeze time (ids >= [csr_n] are minted during solving, have no
     edges, and are their own singleton components) *)
  csr_n : int;
  nrep : int array;  (** node id -> direct-edge SCC representative, sized [csr_n] *)
  crow : int array;  (** condensed CSR over representatives *)
  cdst : int array;  (** destinations, already representatives *)
  ckind : int array;  (** -1 = direct, else cast-class sym *)
  cast_names : string array;  (** cast sym -> class name *)
  mutable cast_memo : Bytes.t array;  (** per cast sym, per value id: 0 unknown / 1 pass / 2 fail *)
  iscc_count : int;
  ilargest_scc : int;
  (* solution state *)
  sols : Slots.t;  (** SCC representative -> value-id set, shared by every member *)
  ideltas : Slots.t;  (** SCC representative -> values since last drain *)
  mutable free_deltas : Util.Bitset.t list;
      (** cleared delta sets recycled to avoid regrowing word arrays *)
  nq : int Queue.t;
  npending : Util.Bitset.t;
  (* static op index *)
  iops : Graph.op array;
  iop_recv : int array;
  iop_args : int array array;
  iop_out : int array;  (** -1 = no out location *)
  op_reads : int list array;  (** SCC representative -> op indexes reading a member *)
  children_readers : int list;
  ids_readers : int list;
  roots_readers : int list;
  (* view relations on ids *)
  ichildren : Slots.t;
  iparents : Slots.t;
  idesc_cache : (int, Util.Bitset.t) Hashtbl.t;  (** strict descendant closures *)
  mutable idesc_hits : int;
  mutable idesc_misses : int;
  iids : Slots.t;  (** view id -> rid syms *)
  iby_id : Slots.t;  (** rid sym -> view ids *)
  iroots : Slots.t;  (** holder id -> root view ids *)
  ilisteners : Slots.t;  (** view id -> listener entry ids *)
  mutable iholder_ids : int list;  (** discovery order, newest first *)
  iholders_seen : Util.Bitset.t;
  mutable irc_children : bool;
  mutable irc_ids : bool;
  mutable irc_roots : bool;
  mutable irc_onclick : bool;  (** a fresh inflation added declarative handlers *)
  mutable irc_fragments : bool;  (** a fresh inflation added declared fragments *)
  (* warm (incremental) solving: copy-on-write over a previous solution.
     Solution sets and relation rows restored from a prior [solved] are
     aliased, never mutated in place; a borrowed row is copied the first
     time a write would grow it. *)
  mutable iwarm : bool;
  iborrowed : Util.Bitset.t;  (** reps whose [sols] slot aliases the previous solution *)
  imutated : Util.Bitset.t;  (** borrowed reps that were copied and then grew *)
  icreated : Util.Bitset.t;
      (** reps whose [sols] slot was first created during a warm solve;
          together with [iborrowed] and [imutated] this covers every
          populated slot, so capture derives its slot mask from three
          small bitsets instead of scanning the slot array *)
  ibor_children : Util.Bitset.t;
  ibor_parents : Util.Bitset.t;
  ibor_ids : Util.Bitset.t;
  ibor_by_id : Util.Bitset.t;
  ibor_roots : Util.Bitset.t;
  ibor_listeners : Util.Bitset.t;
  (* write recording: while an op (or the declarative/fragment pseudo
     pass) runs, every rep it pushes to is logged, so a later patch that
     invalidates the op knows which components its values reached.
     [irec_writer] is the running op index, [Array.length iops] for the
     declarative pass, [+1] for the fragment pass, [-1] off. *)
  mutable irec_writer : int;
  irec_targets : Util.Bitset.t array;
  (* counters *)
  mutable ipropagations : int;
  mutable iop_applications : int;
  mutable idelta_pushes : int;
  mutable iunion_calls : int;
}

let ienqueue st nid = if Util.Bitset.add st.npending nid then Queue.push nid st.nq

(* THE bounds guard for mid-solve-minted ids.  The CSR and the rep
   table are sized to the node count at freeze time, but the interner
   keeps minting ids while solving (views discovered mid-solve, [this]
   / parameter variables of handler methods with empty bodies).  Every
   snapshot-sized lookup — [nrep], [crow], [op_reads] — must funnel an
   id through here first: ids >= [csr_n] are their own singleton
   components with no edges and no static readers. *)
let irep st nid = if nid < st.csr_n then st.nrep.(nid) else nid

(* Per-node delta slots cycle constantly (detached on drain,
   repopulated on the next push); drawing from the recycle pool keeps
   their word arrays at capacity instead of regrowing from scratch each
   round. *)
let idelta_slot st nid =
  match Slots.find st.ideltas nid with
  | Some d -> d
  | None -> (
      match st.free_deltas with
      | d :: rest ->
          st.free_deltas <- rest;
          Slots.set st.ideltas nid d;
          d
      | [] -> Slots.get st.ideltas nid)

(* Take ownership of a borrowed solution slot before a mutating write:
   the previous solution's bitset must stay intact (it is shared with
   the captured [solved] and possibly older ones), so the slot is
   replaced with a copy. *)
let iown_sol st rid =
  let b = match Slots.find st.sols rid with Some b -> b | None -> assert false in
  Util.Bitset.remove st.iborrowed rid;
  ignore (Util.Bitset.add st.imutated rid);
  let c = Util.Bitset.copy b in
  Slots.set st.sols rid c;
  c

(* Pushes land on the component representative: one shared bitset per
   direct-edge cycle, so a value entering anywhere in a cycle is a
   single [add] instead of a propagation lap around it.

   Recording is unconditional on the writer, not gated on growth: a
   removed op's contribution must dirty every component it ever pushed
   to, even where another source supplied the same value. *)
let ipush st nid vid =
  let rid = irep st nid in
  if st.irec_writer >= 0 then ignore (Util.Bitset.add st.irec_targets.(st.irec_writer) rid);
  if st.iwarm then begin
    let present =
      match Slots.find st.sols rid with Some b -> Util.Bitset.mem b vid | None -> false
    in
    if not present then begin
      let slot =
        if Util.Bitset.mem st.iborrowed rid then iown_sol st rid
        else begin
          ignore (Util.Bitset.add st.icreated rid);
          Slots.get st.sols rid
        end
      in
      ignore (Util.Bitset.add slot vid);
      ignore (Util.Bitset.add (idelta_slot st rid) vid);
      ienqueue st rid
    end
  end
  else if Util.Bitset.add (Slots.get st.sols rid) vid then begin
    ignore (Util.Bitset.add (idelta_slot st rid) vid);
    ienqueue st rid
  end

let cast_passes st sym vid =
  let memo = st.cast_memo.(sym) in
  let memo =
    if vid >= Bytes.length memo then begin
      let nlen = max 256 (max (vid + 1) (2 * Bytes.length memo)) in
      let m = Bytes.make nlen '\000' in
      Bytes.blit memo 0 m 0 (Bytes.length memo);
      st.cast_memo.(sym) <- m;
      m
    end
    else memo
  in
  match Bytes.get memo vid with
  | '\001' -> true
  | '\002' -> false
  | _ ->
      let ok =
        passes_cast st.iapp.Framework.App.hierarchy st.cast_names.(sym)
          (Intern.value_of st.it vid)
      in
      Bytes.set memo vid (if ok then '\001' else '\002');
      ok

(* Semi-naive propagation: push only each node's delta (the values that
   arrived since its last drain), over the SCC-condensed CSR.  Sound
   because flow edges are static during solving, so every (value,
   edge) pair is attempted once; [changed] fires for every node whose
   set grew, letting the caller schedule the ops reading it.  The
   worklist carries component representatives only (every enqueue goes
   through [ipush]/[irep]), and direct edges inside a component were
   dropped at freeze time — the shared bitset IS their fixpoint.
   Direct inter-component edges merge whole delta words; cast edges
   filter per value through the per-sym memo.  [cdst] entries are
   already representatives, so pushes stay in rep space. *)
let ipropagate st ~changed =
  while not (Queue.is_empty st.nq) do
    let rid = Queue.pop st.nq in
    Util.Bitset.remove st.npending rid;
    st.ipropagations <- st.ipropagations + 1;
    match Slots.take st.ideltas rid with
    | None -> ()
    | Some d when Util.Bitset.is_empty d ->
        st.free_deltas <- d :: st.free_deltas
    | Some d ->
        (if rid < st.csr_n then begin
           let hi = st.crow.(rid + 1) in
           let dcard = Util.Bitset.cardinal d in
           for e = st.crow.(rid) to hi - 1 do
             let dst = st.cdst.(e) in
             let k = st.ckind.(e) in
             if k < 0 then begin
               st.idelta_pushes <- st.idelta_pushes + dcard;
               st.iunion_calls <- st.iunion_calls + 1;
               let into = Slots.get st.sols dst in
               if st.iwarm then ignore (Util.Bitset.add st.icreated dst);
               (* A borrowed destination is copied only when the union
                  would actually grow it; [union_delta] on a borrowed
                  set that already holds the delta at most grows its
                  capacity, which leaves the shared bits intact. *)
               let into =
                 if
                   st.iwarm
                   && Util.Bitset.mem st.iborrowed dst
                   && not (Util.Bitset.subset d into)
                 then iown_sol st dst
                 else into
               in
               let grew = ref false in
               Util.Bitset.union_delta ~into d ~on_new:(fun vid ->
                   grew := true;
                   ignore (Util.Bitset.add (idelta_slot st dst) vid));
               if !grew then ienqueue st dst
             end
             else
               Util.Bitset.iter
                 (fun vid ->
                   st.idelta_pushes <- st.idelta_pushes + 1;
                   if cast_passes st k vid then ipush st dst vid)
                 d
           done
         end);
        Util.Bitset.clear d;
        st.free_deltas <- d :: st.free_deltas;
        changed rid
  done

(* Relation updates. *)

let iancestors st wid =
  let visited = Util.Bitset.create () in
  ignore (Util.Bitset.add visited wid);
  let q = Queue.create () in
  Queue.push wid q;
  while not (Queue.is_empty q) do
    let cur = Queue.pop q in
    match Slots.find st.iparents cur with
    | None -> ()
    | Some ps -> Util.Bitset.iter (fun p -> if Util.Bitset.add visited p then Queue.push p q) ps
  done;
  visited

let istrict_descendants st wid =
  let visited = Util.Bitset.create () in
  let q = Queue.create () in
  Queue.push wid q;
  while not (Queue.is_empty q) do
    let cur = Queue.pop q in
    match Slots.find st.ichildren cur with
    | None -> ()
    | Some cs -> Util.Bitset.iter (fun c -> if Util.Bitset.add visited c then Queue.push c q) cs
  done;
  visited

let idesc_cached st wid =
  match Hashtbl.find_opt st.idesc_cache wid with
  | Some s ->
      st.idesc_hits <- st.idesc_hits + 1;
      s
  | None ->
      st.idesc_misses <- st.idesc_misses + 1;
      let s = istrict_descendants st wid in
      Hashtbl.replace st.idesc_cache wid s;
      s

(* Insert [v] into relation row [i], copy-on-write under a warm solve:
   a borrowed row (aliased from the previous solution) is copied before
   it grows. *)
let rel_insert st slots bor i v =
  match Slots.find slots i with
  | Some b when Util.Bitset.mem b v -> false
  | existing ->
      let b =
        match existing with
        | Some b when st.iwarm && Util.Bitset.mem bor i ->
            Util.Bitset.remove bor i;
            let c = Util.Bitset.copy b in
            Slots.set slots i c;
            c
        | Some b -> b
        | None -> Slots.get slots i
      in
      Util.Bitset.add b v

let iadd_child st ~parent ~child =
  let grew = rel_insert st st.ichildren st.ibor_children parent child in
  if grew then begin
    ignore (rel_insert st st.iparents st.ibor_parents child parent);
    st.irc_children <- true;
    if Hashtbl.length st.idesc_cache > 0 then
      Util.Bitset.iter (fun v -> Hashtbl.remove st.idesc_cache v) (iancestors st parent)
  end

let iadd_view_id st wid raw =
  let sym = Intern.rid st.it raw in
  if rel_insert st st.iids st.ibor_ids wid sym then begin
    ignore (rel_insert st st.iby_id st.ibor_by_id sym wid);
    st.irc_ids <- true
  end

let iadd_holder_root st hid root =
  if Util.Bitset.add st.iholders_seen hid then st.iholder_ids <- hid :: st.iholder_ids;
  if rel_insert st st.iroots st.ibor_roots hid root then st.irc_roots <- true

let iadd_view_listener st wid entry =
  ignore (rel_insert st st.ilisteners st.ibor_listeners wid entry)

(* Value decoders over a location's solution set. *)

(* All op-rule reads of a node's points-to set funnel through here;
   the set lives on the component representative. *)
let iter_ivalues st nid f =
  match Slots.find st.sols (irep st nid) with None -> () | Some b -> Util.Bitset.iter f b

(* Membership of a single abstract value (the ⊤ markers) at an op
   input, without walking the set: on a ⊤ graph the marker was interned
   at seeding time (or sits at its fixed shared-tier index), so a
   [None] lookup means the value cannot be anywhere. *)
let ihas_value st nid v =
  match Intern.find_value st.it v with
  | None -> false
  | Some vid -> (
      match Slots.find st.sols (irep st nid) with
      | Some b -> Util.Bitset.mem b vid
      | None -> false)

let iall_layout_ids st =
  let package = st.iapp.Framework.App.package in
  let resources = Layouts.Package.resources package in
  List.filter_map
    (fun (def : Layouts.Layout.def) -> Layouts.Resource.find_layout_id resources def.name)
    (Layouts.Package.layouts package)

let irids_at st nid =
  let acc = ref [] in
  iter_ivalues st nid (fun vid ->
      match Intern.value_of st.it vid with Node.V_view_id raw -> acc := raw :: !acc | _ -> ());
  List.rev !acc

let ilayouts_at st nid =
  let acc = ref [] in
  iter_ivalues st nid (fun vid ->
      match Intern.value_of st.it vid with Node.V_layout_id raw -> acc := raw :: !acc | _ -> ());
  List.rev !acc

let iviews_at st nid =
  let acc = ref [] in
  iter_ivalues st nid (fun vid ->
      let wid = Intern.view_of_value_id st.it vid in
      if wid >= 0 then acc := wid :: !acc);
  List.rev !acc

let iholders_at st nid =
  let acc = ref [] in
  iter_ivalues st nid (fun vid ->
      match Intern.value_of st.it vid with
      | Node.V_act a -> acc := Intern.holder st.it (Node.H_act a) :: !acc
      | Node.V_obj site
        when st.iconfig.Config.model_dialogs
             && Framework.Views.is_dialog_class st.iapp.Framework.App.hierarchy site.Node.a_cls ->
          acc := Intern.holder st.it (Node.H_dialog site) :: !acc
      | _ -> ());
  List.rev !acc

let ilisteners_at st iface nid =
  let implements cls =
    Jir.Hierarchy.subtype st.iapp.Framework.App.hierarchy cls iface.Framework.Listeners.i_name
  in
  let acc = ref [] in
  iter_ivalues st nid (fun vid ->
      match Intern.value_of st.it vid with
      | Node.V_obj site when implements site.Node.a_cls -> acc := Node.L_alloc site :: !acc
      | Node.V_view view when implements (Node.class_of_view view) -> (
          match view with
          | Node.V_alloc site -> acc := Node.L_alloc site :: !acc
          | Node.V_infl _ -> ())
      | Node.V_act a when implements a -> acc := Node.L_act a :: !acc
      | _ -> ());
  List.rev !acc

(* Inflation runs structurally ([Inflate] writes the graph-side memo
   and cold tables); a fresh instantiation's subtree facts are then
   imported into the id-level stores, in layout order, which is the
   order their views are minted in. *)
let iinflate_at st ~site lid =
  let package = st.iapp.Framework.App.package in
  match Layouts.Package.find_by_layout_id package lid with
  | None -> None
  | Some def ->
      let views, facts =
        Inflate.instantiate st.igraph ~resources:(Layouts.Package.resources package) ~site def
      in
      Option.iter
        (fun (f : Inflate.facts) ->
          let view = Intern.view st.it in
          List.iter
            (fun (parent, child) ->
              let parent = view parent in
              iadd_child st ~parent ~child:(view child))
            f.children;
          List.iter (fun (w, raw) -> iadd_view_id st (view w) raw) f.view_ids;
          (* a fresh subtree always grows both relations it carries *)
          if f.children <> [] then st.irc_children <- true;
          if f.view_ids <> [] then st.irc_ids <- true;
          if f.onclick then st.irc_onclick <- true;
          if f.fragments then st.irc_fragments <- true)
        facts;
      Some (Inflate.root views)

let iinject_handler_flows st wid listener iface =
  let hierarchy = st.iapp.Framework.App.hierarchy in
  let cls, listener_vid =
    match listener with
    | Node.L_alloc site -> (site.Node.a_cls, Intern.value st.it (Node.V_obj site))
    | Node.L_act a -> (a, Intern.value st.it (Node.V_act a))
  in
  List.iter
    (fun (h : Framework.Listeners.handler) ->
      match
        Jir.Hierarchy.resolve hierarchy cls { Jir.Ast.mk_name = h.h_name; mk_arity = h.h_arity }
      with
      | Some (owner, m) ->
          let tmid = Node.mid_of_meth owner m in
          ipush st (Intern.node st.it (Node.N_var (tmid, Jir.Ast.this_var))) listener_vid;
          (match h.h_view_param with
          | Some k -> (
              match List.nth_opt m.m_params k with
              | Some (param, _) ->
                  ipush st
                    (Intern.node st.it (Node.N_var (tmid, param)))
                    (Intern.value_of_view_id st.it wid)
              | None -> ())
          | None -> ());
          (match h.h_item_param with
          | Some k -> (
              match List.nth_opt m.m_params k with
              | Some (param, _) -> (
                  let pnid = Intern.node st.it (Node.N_var (tmid, param)) in
                  match Slots.find st.ichildren wid with
                  | None -> ()
                  | Some cs ->
                      Util.Bitset.iter
                        (fun c -> ipush st pnid (Intern.value_of_view_id st.it c))
                        cs)
              | None -> ())
          | None -> ())
      | None -> ())
    iface.Framework.Listeners.i_handlers

(* find(view, id) on ids: walk the (few) carriers of the id, keeping
   those inside the receiver's reflexive descendant closure.  [sym] is
   [None] when the queried raw id was never interned (no carrier) —
   the query can still resolve through ⊤-sentinel rows below. *)
let ifind st root sym f =
  let strict = idesc_cached st root in
  let walk s =
    match Slots.find st.iby_id s with
    | None -> ()
    | Some carriers ->
        Util.Bitset.iter (fun w -> if w = root || Util.Bitset.mem strict w then f w) carriers
  in
  (match sym with Some s -> walk s | None -> ());
  (* a view whose id row carries the ⊤ sentinel matches any query *)
  if Graph.has_top st.igraph then
    match Intern.rid_opt st.it Node.top_view_id_raw with
    | Some top_sym when sym <> Some top_sym -> walk top_sym
    | _ -> ()

(* find(view, ⊤): every view in scope carrying at least one id. *)
let ifind_any_id st root f =
  let strict = idesc_cached st root in
  let visit w =
    match Slots.find st.iids w with
    | Some ids when not (Util.Bitset.is_empty ids) -> f w
    | _ -> ()
  in
  visit root;
  Util.Bitset.iter (fun w -> if w <> root then visit w) strict

let iapply_op st ~note_ret oi =
  let op = st.iops.(oi) in
  let g = st.igraph in
  let hierarchy = st.iapp.Framework.App.hierarchy in
  let out_id = st.iop_out.(oi) in
  let out vid = if out_id >= 0 then ipush st out_id vid in
  let out_view wid = out (Intern.value_of_view_id st.it wid) in
  let args = st.iop_args.(oi) in
  let arg k = if k < Array.length args then Some args.(k) else None in
  let recv = st.iop_recv.(oi) in
  match op.Graph.site.o_kind with
  | Framework.Api.Inflate ->
      Option.iter
        (fun a ->
          let lids = ilayouts_at st a in
          let lids = if ihas_value st a Node.V_layout_top then iall_layout_ids st @ lids else lids in
          List.iter
            (fun lid ->
              match iinflate_at st ~site:op.Graph.site.o_site lid with
              | Some root_view ->
                  let root = Intern.view st.it root_view in
                  ignore (Graph.add_root_layout g root_view lid);
                  out_view root;
                  (match arg 1 with
                  | Some parent_arg ->
                      List.iter
                        (fun parent -> iadd_child st ~parent ~child:root)
                        (iviews_at st parent_arg)
                  | None -> ())
              | None -> ())
            lids)
        (arg 0)
  | Framework.Api.Set_content ->
      let holders = iholders_at st recv in
      Option.iter
        (fun a ->
          let lids = ilayouts_at st a in
          let lids = if ihas_value st a Node.V_layout_top then iall_layout_ids st @ lids else lids in
          List.iter
            (fun lid ->
              match iinflate_at st ~site:op.Graph.site.o_site lid with
              | Some root_view ->
                  let root = Intern.view st.it root_view in
                  ignore (Graph.add_root_layout g root_view lid);
                  List.iter (fun h -> iadd_holder_root st h root) holders
              | None -> ())
            lids;
          List.iter
            (fun view -> List.iter (fun h -> iadd_holder_root st h view) holders)
            (iviews_at st a))
        (arg 0)
  | Framework.Api.Add_view ->
      Option.iter
        (fun a ->
          List.iter
            (fun parent ->
              List.iter (fun child -> iadd_child st ~parent ~child) (iviews_at st a))
            (iviews_at st recv))
        (arg 0)
  | Framework.Api.Set_id ->
      Option.iter
        (fun a ->
          let ids = irids_at st a in
          let ids =
            if ihas_value st a Node.V_view_id_top then Node.top_view_id_raw :: ids else ids
          in
          List.iter
            (fun wid -> List.iter (fun raw -> iadd_view_id st wid raw) ids)
            (iviews_at st recv))
        (arg 0)
  | Framework.Api.Set_listener iface ->
      Option.iter
        (fun a ->
          List.iter
            (fun wid ->
              List.iter
                (fun listener ->
                  iadd_view_listener st wid
                    (Intern.listener st.it (listener, iface.Framework.Listeners.i_name));
                  if st.iconfig.Config.listener_callbacks then
                    iinject_handler_flows st wid listener iface)
                (ilisteners_at st iface a))
            (iviews_at st recv))
        (arg 0)
  | Framework.Api.Find_view ->
      Option.iter
        (fun a ->
          let over_scope find =
            List.iter (fun v -> find v) (iviews_at st recv);
            List.iter
              (fun h ->
                match Slots.find st.iroots h with
                | None -> ()
                | Some roots -> Util.Bitset.iter (fun root -> find root) roots)
              (iholders_at st recv)
          in
          List.iter
            (fun raw ->
              over_scope (fun root -> ifind st root (Intern.rid_opt st.it raw) out_view))
            (irids_at st a);
          if ihas_value st a Node.V_view_id_top then
            over_scope (fun root -> ifind_any_id st root out_view))
        (arg 0)
  | Framework.Api.Find_one scope ->
      List.iter
        (fun v ->
          match scope with
          | Framework.Api.Children when st.iconfig.Config.findone_refinement -> (
              match Slots.find st.ichildren v with
              | None -> ()
              | Some cs -> Util.Bitset.iter out_view cs)
          | Framework.Api.Children | Framework.Api.Descendants ->
              Util.Bitset.iter out_view (idesc_cached st v))
        (iviews_at st recv)
  | Framework.Api.Get_parent ->
      List.iter
        (fun v ->
          match Slots.find st.iparents v with
          | None -> ()
          | Some ps -> Util.Bitset.iter out_view ps)
        (iviews_at st recv)
  | Framework.Api.Pass_through -> iter_ivalues st recv out
  | Framework.Api.Fragment_add ->
      let fragments =
        match arg 1 with
        | Some frag_arg ->
            let acc = ref [] in
            iter_ivalues st frag_arg (fun vid ->
                match Intern.value_of st.it vid with
                | Node.V_obj site when Framework.Views.is_fragment_class hierarchy site.Node.a_cls
                  ->
                    acc := site :: !acc
                | _ -> ());
            !acc
        | None -> []
      in
      let container_ids = match arg 0 with Some id_arg -> irids_at st id_arg | None -> [] in
      let top_container =
        match arg 0 with
        | Some id_arg -> ihas_value st id_arg Node.V_view_id_top
        | None -> false
      in
      let containers =
        List.concat_map
          (fun h ->
            match Slots.find st.iroots h with
            | None -> []
            | Some roots ->
                Util.Bitset.fold
                  (fun root acc ->
                    let acc =
                      if top_container then begin
                        let elems = ref acc in
                        ifind_any_id st root (fun w -> elems := w :: !elems);
                        !elems
                      end
                      else acc
                    in
                    List.fold_left
                      (fun acc raw ->
                        let elems = ref acc in
                        ifind st root (Intern.rid_opt st.it raw) (fun w -> elems := w :: !elems);
                        !elems)
                      acc container_ids)
                  roots [])
          (iholders_at st recv)
      in
      List.iter
        (fun (fragment : Node.alloc_site) ->
          match
            Jir.Hierarchy.resolve hierarchy fragment.a_cls
              { Jir.Ast.mk_name = "onCreateView"; mk_arity = 0 }
          with
          | Some (owner, m) ->
              let tmid = Node.mid_of_meth owner m in
              ipush st
                (Intern.node st.it (Node.N_var (tmid, Jir.Ast.this_var)))
                (Intern.value st.it (Node.V_obj fragment));
              let rn = Intern.node st.it (Node.N_ret tmid) in
              note_ret rn;
              let created = iviews_at st rn in
              List.iter
                (fun parent -> List.iter (fun child -> iadd_child st ~parent ~child) created)
                containers
          | None -> ())
        fragments
  | Framework.Api.Menu_add ->
      let item_view = Node.V_alloc (Node.menu_item_site op.Graph.site.o_site) in
      let item = Intern.view st.it item_view in
      List.iter
        (fun menu_wid ->
          let menu = Intern.view_of st.it menu_wid in
          if Jir.Hierarchy.subtype hierarchy (Node.class_of_view menu) "Menu" then begin
            iadd_child st ~parent:menu_wid ~child:item;
            out_view item;
            (match arg 1 with
            | Some id_arg ->
                let ids = irids_at st id_arg in
                let ids =
                  if ihas_value st id_arg Node.V_view_id_top then Node.top_view_id_raw :: ids
                  else ids
                in
                List.iter (fun raw -> iadd_view_id st item raw) ids
            | None -> ());
            match menu with
            | Node.V_alloc site -> (
                match Node.menu_owner site with
                | Some activity -> (
                    match
                      Jir.Hierarchy.resolve hierarchy activity
                        {
                          Jir.Ast.mk_name = fst Framework.Lifecycle.on_options_item_selected;
                          mk_arity = snd Framework.Lifecycle.on_options_item_selected;
                        }
                    with
                    | Some (owner, m) -> (
                        let tmid = Node.mid_of_meth owner m in
                        match m.m_params with
                        | (param, _) :: _ ->
                            ipush st
                              (Intern.node st.it (Node.N_var (tmid, param)))
                              (Intern.value_of_view_id st.it item)
                        | [] -> ())
                    | None -> ())
                | None -> ())
            | Node.V_infl _ -> ()
          end)
        (iviews_at st recv)
  | Framework.Api.Set_adapter ->
      let adapters =
        match arg 0 with
        | Some a ->
            let acc = ref [] in
            iter_ivalues st a (fun vid ->
                match Intern.value_of st.it vid with
                | Node.V_obj site when Jir.Hierarchy.subtype hierarchy site.Node.a_cls "Adapter" ->
                    acc := site :: !acc
                | _ -> ());
            !acc
        | None -> []
      in
      List.iter
        (fun wid ->
          List.iter
            (fun (adapter : Node.alloc_site) ->
              match
                Jir.Hierarchy.resolve hierarchy adapter.a_cls
                  { Jir.Ast.mk_name = "getView"; mk_arity = 3 }
              with
              | Some (owner, m) ->
                  let tmid = Node.mid_of_meth owner m in
                  ipush st
                    (Intern.node st.it (Node.N_var (tmid, Jir.Ast.this_var)))
                    (Intern.value st.it (Node.V_obj adapter));
                  (match List.nth_opt m.m_params 2 with
                  | Some (param, _) ->
                      ipush st
                        (Intern.node st.it (Node.N_var (tmid, param)))
                        (Intern.value_of_view_id st.it wid)
                  | None -> ());
                  let rn = Intern.node st.it (Node.N_ret tmid) in
                  note_ret rn;
                  List.iter (fun child -> iadd_child st ~parent:wid ~child) (iviews_at st rn)
              | None -> ())
            adapters)
        (iviews_at st recv)
  | Framework.Api.Start_activity ->
      let sources = ref [] in
      iter_ivalues st recv (fun vid ->
          match Intern.value_of st.it vid with
          | Node.V_act a -> sources := a :: !sources
          | _ -> ());
      let targets = ref [] in
      (match arg 0 with
      | Some a ->
          iter_ivalues st a (fun vid ->
              match Intern.value_of st.it vid with
              | Node.V_obj site when Framework.Views.is_activity_class hierarchy site.Node.a_cls ->
                  targets := site.Node.a_cls :: !targets
              | Node.V_act act -> targets := act :: !targets
              | _ -> ())
      | None -> ());
      List.iter
        (fun from_ ->
          List.iter (fun to_ -> ignore (Graph.add_transition g ~from_ ~to_)) !targets)
        !sources

let iregister_declarative st hid wid =
  let hierarchy = st.iapp.Framework.App.hierarchy in
  let holder = Intern.holder_of st.it hid in
  let view = Intern.view_of st.it wid in
  let label = match holder with Node.H_act a -> a | Node.H_dialog site -> site.Node.a_cls in
  List.iter
    (fun handler_name ->
      match
        Jir.Hierarchy.resolve hierarchy label { Jir.Ast.mk_name = handler_name; mk_arity = 1 }
      with
      | Some (owner, m) ->
          let listener =
            match holder with
            | Node.H_act a -> Node.L_act a
            | Node.H_dialog site -> Node.L_alloc site
          in
          iadd_view_listener st wid (Intern.listener st.it (listener, "OnClickListener"));
          if st.iconfig.Config.listener_callbacks then begin
            let tmid = Node.mid_of_meth owner m in
            ipush st
              (Intern.node st.it (Node.N_var (tmid, Jir.Ast.this_var)))
              (Intern.value st.it
                 (match holder with
                 | Node.H_act a -> Node.V_act a
                 | Node.H_dialog site -> Node.V_obj site));
            match m.m_params with
            | (param, _) :: _ ->
                ipush st
                  (Intern.node st.it (Node.N_var (tmid, param)))
                  (Intern.value_of_view_id st.it wid)
            | [] -> ()
          end
      | None -> ())
    (Graph.onclicks_of st.igraph view)

let iapply_declarative_handlers st =
  let holder_ids = List.rev st.iholder_ids in
  List.iter
    (fun view ->
      let wid = Intern.view st.it view in
      let above = iancestors st wid in
      List.iter
        (fun hid ->
          let reaches =
            match Slots.find st.iroots hid with
            | None -> false
            | Some roots ->
                Util.Bitset.fold (fun r acc -> acc || Util.Bitset.mem above r) roots false
          in
          if reaches then iregister_declarative st hid wid)
        holder_ids)
    (Graph.views_with_onclick st.igraph)

let iapply_declared_fragments st ~note_ret =
  let hierarchy = st.iapp.Framework.App.hierarchy in
  List.iter
    (fun view ->
      match view with
      | Node.V_infl infl ->
          let wid = Intern.view st.it view in
          List.iter
            (fun cls ->
              match
                Jir.Hierarchy.resolve hierarchy cls
                  { Jir.Ast.mk_name = "onCreateView"; mk_arity = 0 }
              with
              | Some (owner, m) ->
                  let fragment = Node.declared_fragment_site cls infl in
                  let tmid = Node.mid_of_meth owner m in
                  ipush st
                    (Intern.node st.it (Node.N_var (tmid, Jir.Ast.this_var)))
                    (Intern.value st.it (Node.V_obj fragment));
                  let rn = Intern.node st.it (Node.N_ret tmid) in
                  note_ret rn;
                  List.iter
                    (fun child -> iadd_child st ~parent:wid ~child)
                    (iviews_at st rn)
              | None -> ())
            (Graph.declared_fragments_of st.igraph view)
      | Node.V_alloc _ -> ())
    (Graph.views_with_declared_fragments st.igraph)

(* Which relations an op's rule consults beyond its recv/arg sets:
   FindView resolves ids over holder roots and their descendants;
   FindOne/GetParent walk the hierarchy; SetListener re-injects handler
   flows over the receiver's children (list-item propagation);
   FragmentAdd resolves container ids over roots and hierarchies. *)
let reads_children (op : Graph.op) =
  match op.site.o_kind with
  | Framework.Api.Find_view | Find_one _ | Get_parent | Set_listener _ | Fragment_add -> true
  | _ -> false

let reads_ids (op : Graph.op) =
  match op.site.o_kind with Framework.Api.Find_view | Fragment_add -> true | _ -> false

let reads_roots (op : Graph.op) =
  match op.site.o_kind with Framework.Api.Find_view | Fragment_add -> true | _ -> false

(* Freeze: snapshot the graph's id-level structures.  Nodes were
   hash-consed as the graph was built, so everything here is integer
   work — no node is hashed again. *)
let ifreeze config app graph =
  let it = Graph.interner graph in
  let fc = Graph.frozen_flow graph in
  let csr_n = fc.Graph.fc_nodes in
  let nrep = fc.Graph.fc_rep in
  let cast_names = fc.Graph.fc_cast_names in
  let iops = Array.of_list (Graph.ops graph) in
  let ids = Graph.ops_node_ids graph in
  let iop_recv = Array.map (fun (rid, _, _) -> rid) ids in
  let iop_args = Array.map (fun (_, aids, _) -> aids) ids in
  let iop_out = Array.map (fun (_, _, oid) -> oid) ids in
  (* Readers index in rep space: a component's set growing must
     reschedule every op reading ANY member of it.  Ops are interned
     during extraction, so their recv/arg ids are always < [csr_n]. *)
  let op_reads = Array.make (max 1 csr_n) [] in
  let note nid oi =
    let r = nrep.(nid) in
    op_reads.(r) <- oi :: op_reads.(r)
  in
  Array.iteri
    (fun oi _ ->
      note iop_recv.(oi) oi;
      Array.iter (fun a -> note a oi) iop_args.(oi))
    iops;
  for nid = 0 to csr_n - 1 do
    op_reads.(nid) <- List.rev op_reads.(nid)
  done;
  let children_readers = ref [] and ids_readers = ref [] and roots_readers = ref [] in
  Array.iteri
    (fun oi op ->
      if reads_children op then children_readers := oi :: !children_readers;
      if reads_ids op then ids_readers := oi :: !ids_readers;
      if reads_roots op then roots_readers := oi :: !roots_readers)
    iops;
  {
    iconfig = config;
    iapp = app;
    igraph = graph;
    it;
    csr_n;
    nrep;
    crow = fc.Graph.fc_crow;
    cdst = fc.Graph.fc_cdst;
    ckind = fc.Graph.fc_ckind;
    cast_names;
    cast_memo = Array.init (Array.length cast_names) (fun _ -> Bytes.make 256 '\000');
    iscc_count = fc.Graph.fc_scc_count;
    ilargest_scc = fc.Graph.fc_largest_scc;
    sols = Slots.create ();
    ideltas = Slots.create ();
    free_deltas = [];
    nq = Queue.create ();
    npending = Util.Bitset.create ();
    iops;
    iop_recv;
    iop_args;
    iop_out;
    op_reads;
    children_readers = List.rev !children_readers;
    ids_readers = List.rev !ids_readers;
    roots_readers = List.rev !roots_readers;
    ichildren = Slots.create ();
    iparents = Slots.create ();
    idesc_cache = Hashtbl.create 64;
    idesc_hits = 0;
    idesc_misses = 0;
    iids = Slots.create ();
    iby_id = Slots.create ();
    iroots = Slots.create ();
    ilisteners = Slots.create ();
    iholder_ids = [];
    iholders_seen = Util.Bitset.create ();
    irc_children = false;
    irc_ids = false;
    irc_roots = false;
    irc_onclick = false;
    irc_fragments = false;
    iwarm = false;
    iborrowed = Util.Bitset.create ();
    imutated = Util.Bitset.create ();
    icreated = Util.Bitset.create ();
    ibor_children = Util.Bitset.create ();
    ibor_parents = Util.Bitset.create ();
    ibor_ids = Util.Bitset.create ();
    ibor_by_id = Util.Bitset.create ();
    ibor_roots = Util.Bitset.create ();
    ibor_listeners = Util.Bitset.create ();
    irec_writer = -1;
    irec_targets = Array.init (Array.length iops + 2) (fun _ -> Util.Bitset.create ());
    ipropagations = 0;
    iop_applications = 0;
    idelta_pushes = 0;
    iunion_calls = 0;
  }

(* The solver's rows, installed as the graph's solution store: no
   copy — the captured [solved] aliases the same arrays. *)
let isolution st =
  {
    Graph.empty_solution with
    sol_rep = st.nrep;
    sol_sets = st.sols.Slots.a;
    sol_children = st.ichildren.Slots.a;
    sol_parents = st.iparents.Slots.a;
    sol_ids = st.iids.Slots.a;
    sol_roots = st.iroots.Slots.a;
    sol_listeners = st.ilisteners.Slots.a;
  }

type iret_target = IT_op of int | IT_frags

(* The interned fixed-point loop, shared by cold and warm solves.
   [init] performs the mode-specific setup (seeding and scheduling)
   once the worklist plumbing exists; [record] turns on write
   recording (needed whenever the result will be captured as a
   [solved]).  Recording never changes what is pushed, so a recorded
   solve is bit-identical to an unrecorded one. *)
let iloop st ~record ~init config =
  let op_count = Array.length st.iops in
  let op_wl = Queue.create () in
  let op_pending = Util.Bitset.create () in
  let schedule oi = if Util.Bitset.add op_pending oi then Queue.push oi op_wl in
  let pending_decl = ref false in
  let pending_frags = ref false in
  let ret_deps : (int, iret_target list) Hashtbl.t = Hashtbl.create 16 in
  (* [on_changed] fires with representative ids (the propagation
     worklist lives in rep space), so dynamic return dependencies are
     registered under the rep too. *)
  let note_ret target nid =
    let rid = irep st nid in
    let existing = Option.value (Hashtbl.find_opt ret_deps rid) ~default:[] in
    if not (List.mem target existing) then Hashtbl.replace ret_deps rid (target :: existing)
  in
  let on_changed nid =
    if nid < st.csr_n then List.iter schedule st.op_reads.(nid);
    match Hashtbl.find_opt ret_deps nid with
    | Some targets ->
        List.iter
          (function IT_op oi -> schedule oi | IT_frags -> pending_frags := true)
          targets
    | None -> ()
  in
  init ~schedule ~on_changed ~pending_decl ~pending_frags ~ret_deps ~note_ret;
  let set_writer w = if record then st.irec_writer <- w in
  let iterations = ref 0 in
  let work_remaining () =
    (not (Queue.is_empty op_wl)) || !pending_decl || !pending_frags
  in
  while work_remaining () && !iterations < config.Config.max_iterations do
    incr iterations;
    while not (Queue.is_empty op_wl) do
      let oi = Queue.pop op_wl in
      Util.Bitset.remove op_pending oi;
      st.iop_applications <- st.iop_applications + 1;
      set_writer oi;
      iapply_op st ~note_ret:(note_ret (IT_op oi)) oi;
      set_writer (-1)
    done;
    if !pending_decl then begin
      pending_decl := false;
      set_writer op_count;
      iapply_declarative_handlers st;
      set_writer (-1)
    end;
    if !pending_frags then begin
      pending_frags := false;
      set_writer (op_count + 1);
      iapply_declared_fragments st ~note_ret:(note_ret IT_frags);
      set_writer (-1)
    end;
    ipropagate st ~changed:on_changed;
    let rc_children = st.irc_children and rc_ids = st.irc_ids and rc_roots = st.irc_roots in
    let rc_onclick = st.irc_onclick and rc_fragments = st.irc_fragments in
    st.irc_children <- false;
    st.irc_ids <- false;
    st.irc_roots <- false;
    st.irc_onclick <- false;
    st.irc_fragments <- false;
    if rc_children then begin
      List.iter schedule st.children_readers;
      pending_decl := true
    end;
    if rc_ids then List.iter schedule st.ids_readers;
    if rc_roots then begin
      List.iter schedule st.roots_readers;
      pending_decl := true
    end;
    if rc_onclick then pending_decl := true;
    if rc_fragments then pending_frags := true
  done;
  if work_remaining () then
    Logs.warn (fun m -> m "solver hit the iteration cap (%d); result may be partial" !iterations);
  (!iterations, ret_deps)

(* Cold start: push every seed, propagate, schedule every op and both
   declarative passes. *)
let icold_init st ~schedule ~on_changed ~pending_decl ~pending_frags ~ret_deps:_ ~note_ret:_ =
  pending_decl := true;
  pending_frags := true;
  List.iter
    (fun (node, values) ->
      let nid = Intern.node st.it node in
      Graph.VS.iter (fun v -> ipush st nid (Intern.value st.it v)) values)
    (Graph.seeds st.igraph);
  ipropagate st ~changed:on_changed;
  Array.iteri (fun oi _ -> schedule oi) st.iops

let istats st ~iterations ~warm_solve ~dirty_comps ~reused_comps ~fallback =
  {
    iterations;
    propagations = st.ipropagations;
    op_applications = st.iop_applications;
    delta_pushes = st.idelta_pushes;
    desc_cache_hits = st.idesc_hits;
    desc_cache_misses = st.idesc_misses;
    interned_values = Intern.value_count st.it;
    interned_nodes = Intern.node_count st.it;
    bitset_words = Slots.total_words st.sols;
    union_calls = st.iunion_calls;
    scc_count = st.iscc_count;
    largest_scc = st.ilargest_scc;
    ctx_count = Intern.ctx_count st.it;
    ctx_keys = Intern.ctx_key_count st.it;
    warm_solve;
    dirty_comps;
    reused_comps;
    fallback;
  }

let run_interned config (app : Framework.App.t) graph =
  let st = ifreeze config app graph in
  let iterations, _ret_deps = iloop st ~record:false ~init:(icold_init st) config in
  Graph.set_solution graph (isolution st);
  istats st ~iterations ~warm_solve:false ~dirty_comps:0 ~reused_comps:0 ~fallback:None

(* ------------------------------------------------------------------ *)
(* Incremental re-analysis.

   A solve can be captured as a [solved]: the interner, the frozen flow
   snapshot, the per-representative solution bitsets, relation rows,
   dynamic return dependencies and per-op write targets.  When a
   patched version of the app is extracted over the SAME interner
   (every node, value and view shared with the previous program keeps
   its id), an edit script between the two graph shapes drives a warm
   re-solve: only the condensation components forward-reachable from
   the edits are reset and re-solved; every other component's solution
   is restored by aliasing the previous bitsets (copy-on-write guards
   them against later growth). *)

(* Fingerprints guarding the warm path.  The class fingerprint covers
   everything CHA and subtype tests depend on; a mismatch forces a full
   solve.  The method fingerprint covers [Hierarchy.resolve] outcomes
   and callback parameter names: adding a handler method changes which
   flows a Set_listener injects WITHOUT changing any of that op's
   inputs, so a mismatch marks every resolve-dependent op suspect
   rather than falling back. *)
(* Fingerprints are pure functions of immutable program/package values,
   yet a single warm re-solve consults them several times (guard,
   suspect analysis, capture).  A one-slot-per-domain memo keyed on
   physical identity makes every consultation after the first free;
   per-domain slots keep it race-free under the parallel batch
   driver. *)
let fp_memo (type k) () : (k * string) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let memoized key k compute =
  let memo = Domain.DLS.get key in
  match !memo with
  | Some (k', fp) when k' == k -> fp
  | _ ->
      let fp = compute () in
      memo := Some (k, fp);
      fp

let class_fp_memo : (Jir.Ast.program * string) option ref Domain.DLS.key = fp_memo ()

let class_fp (app : Framework.App.t) =
  memoized class_fp_memo app.program (fun () ->
      let b = Buffer.create 1024 in
      List.iter
        (fun (c : Jir.Ast.cls) ->
          Buffer.add_string b c.c_name;
          Buffer.add_char b '\x01';
          Buffer.add_string b (match c.c_kind with `Class -> "c" | `Interface -> "i");
          Buffer.add_string b (Option.value c.c_super ~default:"");
          Buffer.add_char b '\x01';
          List.iter
            (fun i ->
              Buffer.add_string b i;
              Buffer.add_char b ',')
            c.c_interfaces;
          Buffer.add_char b '\n')
        (List.sort
           (fun (a : Jir.Ast.cls) (b : Jir.Ast.cls) -> String.compare a.c_name b.c_name)
           app.program.p_classes);
      Digest.to_hex (Digest.string (Buffer.contents b)))

(* The method fingerprint guards only [Hierarchy.resolve] outcomes
   (which methods exist, by class, name and arity): parameter renames
   and body edits show up in the extracted graph and are covered by
   the edit script instead.  Classes and methods are hashed in program
   order — a pure reordering flips the fingerprint, which costs a
   conservative suspect pass, never soundness. *)
let method_fp_memo : (Jir.Ast.program * string) option ref Domain.DLS.key = fp_memo ()

let small_arities = Array.init 64 string_of_int

let method_fp (app : Framework.App.t) =
  memoized method_fp_memo app.program (fun () ->
      let b = Buffer.create 4096 in
      List.iter
        (fun (c : Jir.Ast.cls) ->
          Buffer.add_string b c.c_name;
          Buffer.add_char b '\x01';
          List.iter
            (fun (m : Jir.Ast.meth) ->
              Buffer.add_string b m.m_name;
              Buffer.add_char b '/';
              let a = List.length m.m_params in
              Buffer.add_string b (if a < 64 then small_arities.(a) else string_of_int a);
              Buffer.add_char b ';')
            c.c_methods;
          Buffer.add_char b '\n')
        app.program.p_classes;
      Digest.to_hex (Digest.string (Buffer.contents b)))

let layout_fp_memo : (Layouts.Package.t * string) option ref Domain.DLS.key = fp_memo ()

let layout_fp (app : Framework.App.t) =
  memoized layout_fp_memo app.Framework.App.package (fun () ->
      let b = Buffer.create 4096 in
      List.iter
        (fun (def : Layouts.Layout.def) ->
          Buffer.add_string b def.name;
          Buffer.add_char b '\x01';
          Buffer.add_string b (Fmt.str "%a" Layouts.Layout.pp def);
          Buffer.add_char b '\n')
        (Layouts.Package.layouts app.Framework.App.package);
      Digest.to_hex (Digest.string (Buffer.contents b)))

(* Seeds as sorted (node id, value id) pairs — the diffable form. *)
let iseed_pairs it graph =
  Graph.seeds graph
  |> List.concat_map (fun (node, vs) ->
         let nid = Intern.node it node in
         Graph.VS.fold (fun v acc -> (nid, Intern.value it v) :: acc) vs [])
  |> List.sort compare
  |> Array.of_list

type shape = {
  sh_nodes : int;  (** nodes covered by the flow CSR *)
  sh_row : int array;
  sh_edst : int array;
  sh_ekind : int array;  (** [-1] direct, else index into [sh_cast_names] *)
  sh_cast_names : string array;
  sh_seeds : (int * int) array;  (** sorted (node id, value id) pairs *)
  sh_ops : (Node.op_site * int * int array * int) array;
}

let shape_of_graph graph =
  let fc = Graph.frozen_flow graph in
  let ids = Graph.ops_node_ids graph in
  let ops = Array.of_list (Graph.ops graph) in
  let sh_ops =
    Array.mapi
      (fun i (op : Graph.op) ->
        let recv, args, out = ids.(i) in
        (op.Graph.site, recv, args, out))
      ops
  in
  {
    sh_nodes = fc.Graph.fc_nodes;
    sh_row = fc.Graph.fc_row;
    sh_edst = fc.Graph.fc_edst;
    sh_ekind = fc.Graph.fc_ekind;
    sh_cast_names = fc.Graph.fc_cast_names;
    sh_seeds = iseed_pairs (Graph.interner graph) graph;
    sh_ops;
  }

(* Graph-level edit script between two shapes over a shared interner.
   Edge kinds are expressed in the NEW shape's cast-symbol space
   (removed edges whose cast class vanished get a sentinel [<= -2];
   only the destination matters for invalidation). *)
type edit_script = {
  es_removed_edges : (int * int * int) array;  (** (src, kind, dst) *)
  es_added_edges : (int * int * int) array;
  es_removed_seeds : (int * int) array;
  es_added_seeds : (int * int) array;
  es_old_to_new : int array;  (** old op index -> new, [-1] unmatched (removed) *)
  es_new_to_old : int array;  (** new op index -> old, [-1] unmatched (added) *)
}

(* Dynamic return dependency kinds, as persisted. *)
type rd = RD_op of int | RD_frags

(* A captured solution.  Treat every field as read-only: the bitsets
   are shared (aliased) with later warm solves and with [sd_graph]'s
   solution store.  [sd_graph] carries the cold structural tables a
   warm start restores and a snapshot writes. *)
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
  sd_csr_n : int;  (** nodes covered by the frozen CSR (freeze-time count) *)
  sd_row : int array;
  sd_edst : int array;
  sd_ekind : int array;
  sd_cast_names : string array;
  sd_seeds : (int * int) array;
  sd_ops : (Node.op_site * int * int array * int) array;
  sd_solution : Graph.solution;  (** the captured rows; aliased, never mutated *)
  sd_sols_mask : Util.Bitset.t;  (** bits of the [Some] slots of the points-to rows *)
  sd_by_id : Util.Bitset.t option array;  (** rid sym -> view ids carrying it *)
  sd_holder_ids : int list;  (** discovery order, newest first *)
  sd_ret_deps : (int * rd) list;  (** rep -> dynamic reader *)
  sd_targets : Util.Bitset.t array;
      (** per op (plus declarative and fragment pseudo-slots at
          [|ops|] and [|ops|+1]): representatives the writer pushed
          values to, across this solve and, transitively, the solves
          it warm-started from *)
}

let shape_of_solved sd =
  {
    sh_nodes = sd.sd_csr_n;
    sh_row = sd.sd_row;
    sh_edst = sd.sd_edst;
    sh_ekind = sd.sd_ekind;
    sh_cast_names = sd.sd_cast_names;
    sh_seeds = sd.sd_seeds;
    sh_ops = sd.sd_ops;
  }

let solved_interner sd = sd.sd_it

(* Documented read-side accessors for [Query]: the rep map with the
   same out-of-range guard as [irep] (ids minted after freeze are their
   own singleton components), plus the identity fields a registry keys
   on. *)
let solved_rep sd nid = if nid >= 0 && nid < sd.sd_csr_n then sd.sd_solution.Graph.sol_rep.(nid) else nid

let solved_app_name sd = sd.sd_app_name

let solved_config sd = sd.sd_config

let solved_class_fp sd = sd.sd_class_fp

(* Capture the fixpoint reached by [st].  [carry] maps each write slot
   to its previous-solve target set (matched ops under a warm solve);
   carried targets are mapped through the current representatives so
   invalidation stays sound across repeated patches. *)
let icapture st ?carry_map ?fps ?seeds ?reuse_ops ~config ~(app : Framework.App.t) ~ret_deps
    carry =
  let fc = Graph.frozen_flow st.igraph in
  let op_count = Array.length st.iops in
  (* Carried-over targets are reps of the previous condensation; when
     no representative moved they are still reps, so the merge is a
     word-level union with no per-element remapping — and an op that
     recorded nothing this solve keeps its previous target set by
     aliasing it outright (target sets are never mutated after
     capture). *)
  let sd_targets =
    Array.init (op_count + 2) (fun i ->
        let t = st.irec_targets.(i) in
        match (carry i, carry_map) with
        | Some old, None when Util.Bitset.is_empty t -> old
        | Some old, None ->
            Util.Bitset.union_delta ~into:t old ~on_new:(fun _ -> ());
            t
        | Some old, Some f ->
            Util.Bitset.iter (fun r -> ignore (Util.Bitset.add t (f r))) old;
            t
        | None, _ -> t)
  in
  let sd_ret_deps =
    Hashtbl.fold
      (fun rid targets acc ->
        List.fold_left
          (fun acc t ->
            (rid, match t with IT_op oi -> RD_op oi | IT_frags -> RD_frags) :: acc)
          acc targets)
      ret_deps []
  in
  (* A matched op's tuple (site, recv ids, arg ids, out id) is exactly
     what the multiset matching keyed on, so the previous capture's
     entry can be shared instead of rebuilt. *)
  let fresh_op i =
    let op = st.iops.(i) in
    (op.Graph.site, st.iop_recv.(i), st.iop_args.(i), st.iop_out.(i))
  in
  let sd_ops =
    match reuse_ops with
    | Some (prev_ops, new_to_old) ->
        Array.init op_count (fun i ->
            let oj = new_to_old.(i) in
            if oj >= 0 then prev_ops.(oj) else fresh_op i)
    | None -> Array.init op_count fresh_op
  in
  (* Warm captures pass the fingerprints through: the guard already
     proved class/layout equal to the previous solve's and the method
     fingerprint was computed for the suspect analysis. *)
  let sd_class_fp, sd_method_fp, sd_layout_fp =
    match fps with Some t -> t | None -> (class_fp app, method_fp app, layout_fp app)
  in
  let sd_seeds = match seeds with Some s -> s | None -> iseed_pairs st.it st.igraph in
  (* The captured arrays alias the solver state's backing stores — the
     state is dead once capture runs, so nothing mutates them later. *)
  let sd_sols = st.sols.Slots.a in
  (* Warm solves know exactly which slots are populated — still
     borrowed, copied on write, or created this solve — so the mask is
     a union of three small bitsets; a cold solve scans the array. *)
  let sd_sols_mask =
    if st.iwarm then begin
      let mask = Util.Bitset.copy st.iborrowed in
      Util.Bitset.union_delta ~into:mask st.imutated ~on_new:ignore;
      Util.Bitset.union_delta ~into:mask st.icreated ~on_new:ignore;
      mask
    end
    else begin
      let mask = Util.Bitset.create () in
      Array.iteri
        (fun i o -> match o with Some _ -> ignore (Util.Bitset.add mask i) | None -> ())
        sd_sols;
      mask
    end
  in
  {
    sd_config = config;
    sd_app_name = app.Framework.App.name;
    sd_class_fp;
    sd_method_fp;
    sd_layout_fp;
    sd_package = app.Framework.App.package;
    sd_graph = st.igraph;
    sd_it = st.it;
    sd_node_total = Intern.node_count st.it;
    sd_value_total = Intern.value_count st.it;
    sd_csr_n = st.csr_n;
    sd_row = fc.Graph.fc_row;
    sd_edst = fc.Graph.fc_edst;
    sd_ekind = fc.Graph.fc_ekind;
    sd_cast_names = st.cast_names;
    sd_seeds;
    sd_ops;
    sd_solution = Graph.solution st.igraph;
    sd_sols_mask;
    sd_by_id = st.iby_id.Slots.a;
    sd_holder_ids = st.iholder_ids;
    sd_ret_deps;
    sd_targets;
  }

(* ------------------------------------------------------------------ *)
(* Imprecision taint.

   A second plane over the solution: value [v] at node [n] is tainted
   when its presence may depend on how an unknown-id marker resolves.
   Solving never branches on taint, so it is derivable from the
   solution store — one shared pass over the id plane, run identically
   after both engines, which makes cross-engine bit-identity of the
   plane trivial, keeps the warm-solve machinery entirely taint-free
   (⊤ graphs refuse warm starts; see [warm_guard]), and costs nothing
   on ⊤-free apps (the [has_top] guard).

   The pass propagates over the FULL frozen flow CSR
   ([fc_row]/[fc_edst]), not the structural edge list: context-keyed
   clone constraints exist only at the id level.  Taint is an invariant
   subset of the solution ([taint n ⊆ set n]), maintained by the
   membership guard in [add].

   Rules (iterated to a fixpoint):
   - a marker value taints itself wherever it occurs;
   - a flow edge copies taint value-per-value, cast-filtered;
   - Inflate/Set_content with ⊤ (or a tainted concrete id) at the
     layout argument taints the whole subtree it inflated at that
     site — tracked in the tainted-view set [w] and lifted back into
     every solution set containing such a view;
   - FindView(_, ⊤), or a FindView/FindOne/GetParent whose receiver
     holds a tainted view or holder value, taints the views it
     outputs; a FindView output carrying the ⊤ id-row sentinel
     (SetId(v, ⊤)) is tainted too, since any query matches it;
   - PassThrough copies the receiver's taints;
   - relations (children, ids, roots, listeners) and handler-parameter
     injections carry no taint. *)
let compute_taints (app : Framework.App.t) graph =
  if Graph.has_top graph then begin
    let it = Graph.interner graph in
    let fc = Graph.frozen_flow graph in
    let sol = Graph.solution graph in
    let hierarchy = app.Framework.App.hierarchy in
    let package = app.Framework.App.package in
    let n = Intern.node_count it in
    let empty = Util.Bitset.create () in
    let set_at nid = match Graph.points_to_row sol nid with Some b -> b | None -> empty in
    let taint = Array.init n (fun _ -> Util.Bitset.create ()) in
    let changed = ref true in
    let add nid vid =
      if nid >= 0 && Util.Bitset.mem (set_at nid) vid && Util.Bitset.add taint.(nid) vid then
        changed := true
    in
    let w = Util.Bitset.create () in
    let grow_w view =
      match Intern.find_view it view with
      | Some wid -> if Util.Bitset.add w wid then changed := true
      | None -> ()
    in
    let has nid = function Some vid -> Util.Bitset.mem (set_at nid) vid | None -> false in
    let exists_value nid p =
      Util.Bitset.fold (fun vid acc -> acc || p (Intern.value_of it vid)) taint.(nid) false
    in
    let layout_top = Intern.find_value it Node.V_layout_top in
    let view_id_top = Intern.find_value it Node.V_view_id_top in
    let top_sym = Intern.rid_opt it Node.top_view_id_raw in
    (* Markers taint themselves. *)
    List.iter
      (Option.iter (fun marker -> for nid = 0 to n - 1 do add nid marker done))
      [ layout_top; view_id_top ];
    let edges () =
      for src = 0 to fc.Graph.fc_nodes - 1 do
        if not (Util.Bitset.is_empty taint.(src)) then
          for e = fc.Graph.fc_row.(src) to fc.Graph.fc_row.(src + 1) - 1 do
            let dst = fc.Graph.fc_edst.(e) in
            let k = fc.Graph.fc_ekind.(e) in
            Util.Bitset.iter
              (fun vid ->
                if k < 0 || passes_cast hierarchy fc.Graph.fc_cast_names.(k) (Intern.value_of it vid)
                then add dst vid)
              taint.(src)
          done
      done
    in
    let ops = Array.of_list (Graph.ops graph) in
    let ids = Graph.ops_node_ids graph in
    let taint_out_views out =
      if out >= 0 then
        Util.Bitset.iter (fun vid -> if Intern.view_of_value_id it vid >= 0 then add out vid) (set_at out)
    in
    let tainted_scope recv =
      exists_value recv (function Node.V_view _ | Node.V_act _ | Node.V_obj _ -> true | _ -> false)
    in
    (* a view whose id row carries the ⊤ sentinel *)
    let top_id_view vid =
      let wid = Intern.view_of_value_id it vid in
      match (top_sym, Graph.row sol.Graph.sol_ids wid) with
      | Some sym, Some row -> Util.Bitset.mem row sym
      | _ -> false
    in
    let op_rules () =
      Array.iteri
        (fun i (op : Graph.op) ->
          let recv, args, out = ids.(i) in
          let arg k = if k < Array.length args then Some args.(k) else None in
          match op.Graph.site.Node.o_kind with
          | Framework.Api.Inflate | Framework.Api.Set_content -> (
              match arg 0 with
              | None -> ()
              | Some a ->
                  let site = op.Graph.site.Node.o_site in
                  let mark_layout name =
                    match Graph.find_inflation graph ~site ~layout:name with
                    | Some views -> List.iter grow_w views
                    | None -> ()
                  in
                  if has a layout_top then
                    List.iter
                      (fun (def : Layouts.Layout.def) -> mark_layout def.name)
                      (Layouts.Package.layouts package);
                  Util.Bitset.iter
                    (fun vid ->
                      match Intern.value_of it vid with
                      | Node.V_layout_id lid -> (
                          match Layouts.Package.find_by_layout_id package lid with
                          | Some def -> mark_layout def.Layouts.Layout.name
                          | None -> ())
                      | _ -> ())
                    taint.(a))
          | Framework.Api.Find_view -> (
              match arg 0 with
              | None -> ()
              | Some a ->
                  let tainted_id =
                    exists_value a (function Node.V_view_id _ -> true | _ -> false)
                  in
                  if has a view_id_top || tainted_id || tainted_scope recv then taint_out_views out
                  else if out >= 0 then
                    (* concrete query, but a result carrying the
                       ⊤ sentinel may have matched through it *)
                    Util.Bitset.iter (fun vid -> if top_id_view vid then add out vid) (set_at out))
          | Framework.Api.Find_one _ | Framework.Api.Get_parent ->
              if tainted_scope recv then taint_out_views out
          | Framework.Api.Pass_through -> Util.Bitset.iter (fun vid -> add out vid) taint.(recv)
          | Framework.Api.Add_view | Framework.Api.Set_id | Framework.Api.Set_listener _
          | Framework.Api.Start_activity | Framework.Api.Fragment_add | Framework.Api.Menu_add
          | Framework.Api.Set_adapter ->
              ())
        ops
    in
    let lift () =
      for nid = 0 to n - 1 do
        Util.Bitset.iter
          (fun vid ->
            let wid = Intern.view_of_value_id it vid in
            if wid >= 0 && Util.Bitset.mem w wid then add nid vid)
          (set_at nid)
      done
    in
    while !changed do
      changed := false;
      edges ();
      op_rules ();
      lift ()
    done;
    let rows = Array.map (fun b -> if Util.Bitset.is_empty b then None else Some b) taint in
    Graph.set_solution graph { sol with Graph.sol_taints = rows }
  end

(* Full solve that also captures the solution for later warm restarts.
   Always runs the interned engine (the captured state is id-level);
   bit-identical to [run] under the interned solver. *)
let run_solved ?fallback config (app : Framework.App.t) graph =
  Graph.reset_sets graph;
  let st = ifreeze config app graph in
  let iterations, ret_deps = iloop st ~record:true ~init:(icold_init st) config in
  Graph.set_solution graph (isolution st);
  compute_taints app graph;
  let stats = istats st ~iterations ~warm_solve:false ~dirty_comps:0 ~reused_comps:0 ~fallback in
  (stats, icapture st ~config ~app ~ret_deps (fun _ -> None))

(* Is a warm start sound?  Returns the reason to fall back, if any. *)
let warm_guard prev config (app : Framework.App.t) graph =
  if not (Graph.interner graph == prev.sd_it) then
    Some "graph was not extracted over the previous solve's interner"
  else if config <> prev.sd_config then Some "configuration changed"
  else if Graph.has_top graph || Graph.has_top prev.sd_graph then
    (* A ⊤ marker makes op effects depend on the whole layout table
       and the whole id index, which the shape diff does not model —
       and the taint plane would have to be re-derived anyway.  Sound
       mode always re-solves from scratch. *)
    Some "unknown-id markers present: sound mode is not warm-startable"
  else if config.Config.inline_depth > 0 && config.Config.solver = Config.Interned then
    (* Context-keyed graphs carry their clone constraints only in the
       id-level stores, so the structural shape diff cannot see them —
       and clone numbers are minted per extraction, so a patched app
       renumbers ⟨node, ctx⟩ keys wholesale.  A cs snapshot therefore
       always re-solves from scratch; test_incremental pins that this
       fallback stays bit-identical. *)
    Some "context-keyed solve: clone constraints are invisible to the shape diff"
  else if class_fp app <> prev.sd_class_fp then Some "class hierarchy changed"
  else if
    (not (app.Framework.App.package == prev.sd_package)) && layout_fp app <> prev.sd_layout_fp
  then Some "layout resources changed"
  else None

(* Which view relations each op kind writes; a suspect or removed
   writer leaves rows with no justification, so its kinds are rebuilt
   wholesale.  [Inflate]/[Set_content] write children and ids through
   the inflation import. *)
let iwrites_children = function
  | Framework.Api.Inflate | Framework.Api.Set_content | Framework.Api.Add_view
  | Framework.Api.Fragment_add | Framework.Api.Menu_add | Framework.Api.Set_adapter ->
      true
  | _ -> false

let iwrites_ids = function
  | Framework.Api.Inflate | Framework.Api.Set_content | Framework.Api.Set_id
  | Framework.Api.Menu_add ->
      true
  | _ -> false

let iwrites_roots = function Framework.Api.Set_content -> true | _ -> false

let iwrites_listeners = function Framework.Api.Set_listener _ -> true | _ -> false

(* Ops whose rule consults [Hierarchy.resolve] (callback injection):
   a method-set change can alter their effects with unchanged op
   inputs. *)
let iresolve_dependent = function
  | Framework.Api.Set_listener _ | Framework.Api.Fragment_add | Framework.Api.Menu_add
  | Framework.Api.Set_adapter ->
      true
  | _ -> false

(* Warm re-solve against a previous solution.  [graph] must be the
   patched app's graph extracted over [prev]'s interner; [edits] the
   edit script between [shape_of_solved prev] and [shape_of_graph
   graph].  Falls back to a recorded full solve when the warm guard
   refuses.  The result is bit-identical to a from-scratch solve of
   [graph]. *)
let run_incremental ~prev ~edits ?new_shape config (app : Framework.App.t) graph =
  match warm_guard prev config app graph with
  | Some reason -> run_solved ~fallback:reason config app graph
  | None ->
      Graph.reset_sets graph;
      let st = ifreeze config app graph in
      st.iwarm <- true;
      let op_count = Array.length st.iops in
      let old_op_count = Array.length prev.sd_ops in
      let prev_sol = prev.sd_solution in
      let orep = solved_rep prev in
      let new_seeds =
        match new_shape with Some s -> s.sh_seeds | None -> iseed_pairs st.it st.igraph
      in
      let new_method_fp = method_fp app in
      let methods_changed = new_method_fp <> prev.sd_method_fp in
      (* Dirty components: everything forward-reachable (over ALL edge
         kinds of the new condensation) from the edit set. *)
      let dirty = Util.Bitset.create () in
      let frontier = Queue.create () in
      let mark_dirty r = if Util.Bitset.add dirty r then Queue.push r frontier in
      let close () =
        while not (Queue.is_empty frontier) do
          let r = Queue.pop frontier in
          if r < st.csr_n then
            for e = st.crow.(r) to st.crow.(r + 1) - 1 do
              mark_dirty st.cdst.(e)
            done
        done
      in
      (* Components whose membership changed between the two
         condensations (cycle splits and merges): representatives are
         smallest-member ids and new ids are larger, so an unchanged
         component keeps its representative — any moved rep flags both
         the node's new component and its old rep's. *)
      let reps_moved = ref false in
      for nid = 0 to prev.sd_node_total - 1 do
        let o = orep nid and n = irep st nid in
        if n <> o then begin
          reps_moved := true;
          mark_dirty n;
          mark_dirty (irep st o)
        end
      done;
      Array.iter (fun (_, _, dst) -> mark_dirty (irep st dst)) edits.es_removed_edges;
      Array.iter (fun (nid, _) -> mark_dirty (irep st nid)) edits.es_removed_seeds;
      let dirty_old_targets i =
        Util.Bitset.iter (fun r -> mark_dirty (irep st r)) prev.sd_targets.(i)
      in
      let target_dirty i =
        let hit = ref false in
        Util.Bitset.iter
          (fun r -> if (not !hit) && Util.Bitset.mem dirty (irep st r) then hit := true)
          prev.sd_targets.(i);
        !hit
      in
      let children_cleared = ref false in
      let ids_cleared = ref false in
      let roots_cleared = ref false in
      let listeners_cleared = ref false in
      let clear_for kind =
        if iwrites_children kind then children_cleared := true;
        if iwrites_ids kind then ids_cleared := true;
        if iwrites_roots kind then roots_cleared := true;
        if iwrites_listeners kind then listeners_cleared := true
      in
      (* Removed ops: recorded contributions are stale. *)
      Array.iteri
        (fun oj ni ->
          if ni < 0 then begin
            let (site : Node.op_site), _, _, _ = prev.sd_ops.(oj) in
            dirty_old_targets oj;
            clear_for site.Node.o_kind
          end)
        edits.es_old_to_new;
      (* Old dynamic return dependencies, re-keyed to surviving ops. *)
      let op_ret_reps = Array.make (max 1 op_count) [] in
      let frags_dep_reps = ref [] in
      List.iter
        (fun (r, rdep) ->
          match rdep with
          | RD_op oj ->
              if oj >= 0 && oj < old_op_count then begin
                let oi = edits.es_old_to_new.(oj) in
                if oi >= 0 then op_ret_reps.(oi) <- r :: op_ret_reps.(oi)
              end
          | RD_frags -> frags_dep_reps := r :: !frags_dep_reps)
        prev.sd_ret_deps;
      (* Suspect fixpoint: an op whose inputs (static reads, restored
         return deps, consulted relations, resolve outcomes) may have
         changed gets its old targets dirtied and its written relation
         kinds cleared; clears and new dirt can suspect further ops, so
         iterate with the closure until stable. *)
      let suspect = Util.Bitset.create () in
      let decl_suspect = ref methods_changed in
      let frags_suspect = ref methods_changed in
      let decl_applied = ref false in
      let frags_applied = ref false in
      close ();
      let changed = ref true in
      while !changed do
        changed := false;
        Array.iteri
          (fun oi (op : Graph.op) ->
            let oj = edits.es_new_to_old.(oi) in
            if oj >= 0 && not (Util.Bitset.mem suspect oi) then begin
              let kind = op.Graph.site.Node.o_kind in
              let sus =
                (methods_changed && iresolve_dependent kind)
                || Util.Bitset.mem dirty (irep st st.iop_recv.(oi))
                || Array.exists
                     (fun a -> Util.Bitset.mem dirty (irep st a))
                     st.iop_args.(oi)
                || List.exists
                     (fun r -> Util.Bitset.mem dirty (irep st r))
                     op_ret_reps.(oi)
                || (!children_cleared && reads_children op)
                || (!ids_cleared && reads_ids op)
                || (!roots_cleared && reads_roots op)
              in
              if sus then begin
                ignore (Util.Bitset.add suspect oi);
                dirty_old_targets oj;
                clear_for kind;
                changed := true
              end
            end)
          st.iops;
        if (not !decl_suspect) && (!children_cleared || !roots_cleared) then begin
          decl_suspect := true;
          changed := true
        end;
        if !decl_suspect && not !decl_applied then begin
          decl_applied := true;
          dirty_old_targets old_op_count;
          listeners_cleared := true;
          changed := true
        end;
        if
          (not !frags_suspect)
          && (!children_cleared
             || List.exists (fun r -> Util.Bitset.mem dirty (irep st r)) !frags_dep_reps)
        then begin
          frags_suspect := true;
          changed := true
        end;
        if !frags_suspect && not !frags_applied then begin
          frags_applied := true;
          dirty_old_targets (old_op_count + 1);
          children_cleared := true;
          changed := true
        end;
        close ()
      done;
      (* Restore the solution sets of clean components by aliasing: a
         previous slot at [r] means [r] was a representative; it is
         restorable when it still represents itself and is clean
         (membership changes always dirty the affected reps). *)
      let reused = ref 0 in
      (if not !reps_moved then begin
         (* Every previous slot index is still its own representative,
            so the whole slot array restores as one blit; only the
            dirty components are withheld. *)
         let n = Array.length prev_sol.sol_sets in
         if n > 0 then begin
           Slots.ensure st.sols (n - 1);
           Array.blit prev_sol.sol_sets 0 st.sols.Slots.a 0 n
         end;
         Util.Bitset.assign st.iborrowed prev.sd_sols_mask;
         reused := Util.Bitset.cardinal prev.sd_sols_mask;
         Util.Bitset.iter
           (fun r ->
             if r < n && Util.Bitset.mem prev.sd_sols_mask r then begin
               st.sols.Slots.a.(r) <- None;
               Util.Bitset.remove st.iborrowed r;
               decr reused
             end)
           dirty
       end
       else
         Array.iteri
           (fun r slot ->
             match slot with
             | Some b
               when r < prev.sd_node_total && irep st r = r && not (Util.Bitset.mem dirty r) ->
                 Slots.set st.sols r b;
                 ignore (Util.Bitset.add st.iborrowed r);
                 incr reused
             | _ -> ())
           prev_sol.sol_sets);
      let restore_rows slots bor rows =
        Array.iteri
          (fun i o ->
            match o with
            | Some b ->
                Slots.set slots i b;
                ignore (Util.Bitset.add bor i)
            | None -> ())
          rows
      in
      if not !children_cleared then begin
        restore_rows st.ichildren st.ibor_children prev_sol.sol_children;
        restore_rows st.iparents st.ibor_parents prev_sol.sol_parents
      end;
      if not !ids_cleared then begin
        restore_rows st.iids st.ibor_ids prev_sol.sol_ids;
        restore_rows st.iby_id st.ibor_by_id prev.sd_by_id
      end;
      if not !roots_cleared then begin
        restore_rows st.iroots st.ibor_roots prev_sol.sol_roots;
        st.iholder_ids <- prev.sd_holder_ids;
        List.iter (fun hid -> ignore (Util.Bitset.add st.iholders_seen hid)) prev.sd_holder_ids
      end;
      if not !listeners_cleared then
        restore_rows st.ilisteners st.ibor_listeners prev_sol.sol_listeners;
      (* Cold structural tables (inflation memo, declarative handlers,
         fragment placeholders, root layouts) are restored only when
         both children and ids survive: a memo hit skips the id-level
         subtree import, which is exactly what a suspect inflating op
         would need to redo — and any such op clears children. *)
      if not (!children_cleared || !ids_cleared) then begin
        List.iter
          (fun (site, layout, views) -> Graph.record_inflation graph ~site ~layout views)
          (Graph.inflation_entries prev.sd_graph);
        List.iter
          (fun (view, names) ->
            List.iter (fun n -> ignore (Graph.add_onclick graph view n)) names)
          (Graph.onclick_entries prev.sd_graph);
        List.iter
          (fun (view, classes) ->
            List.iter (fun c -> ignore (Graph.add_declared_fragment graph view c)) classes)
          (Graph.declared_fragment_entries prev.sd_graph);
        List.iter
          (fun (view, lids) ->
            List.iter (fun lid -> ignore (Graph.add_root_layout graph view lid)) lids)
          (Graph.root_layout_entries prev.sd_graph)
      end;
      let iwarm_init ~schedule ~on_changed ~pending_decl ~pending_frags ~ret_deps:_ ~note_ret =
        List.iter
          (fun (r, rdep) ->
            match rdep with
            | RD_op oj ->
                if oj >= 0 && oj < old_op_count then begin
                  let oi = edits.es_old_to_new.(oj) in
                  if oi >= 0 then note_ret (IT_op oi) r
                end
            | RD_frags -> note_ret IT_frags r)
          prev.sd_ret_deps;
        (* Seeds of dirty components refill their reset sets; seeds of
           unrestored (fresh) components fill them for the first time.
           Seeds of restored components are already present — their
           push would be a mem no-op — so they are skipped outright
           rather than paying an interner lookup each. *)
        Array.iter
          (fun (nid, vid) ->
            let r = irep st nid in
            if Util.Bitset.mem dirty r || not (Util.Bitset.mem st.iborrowed r) then
              ipush st nid vid)
          new_seeds;
        (* Restored components never emit deltas, so their outflow must
           be injected once: into dirty successors (reset to empty),
           and through edges that did not exist before.  Later growth
           of a restored set turns it into an owned, delta-emitting
           copy, so only the restored portion needs this.  With no
           dirty components there is nowhere to inject. *)
        if not (Util.Bitset.is_empty dirty) then
          Util.Bitset.iter
            (fun r ->
              match Slots.find st.sols r with
              | None -> ()
              | Some set ->
                  if r < st.csr_n then
                    for e = st.crow.(r) to st.crow.(r + 1) - 1 do
                      let dst = st.cdst.(e) in
                      if Util.Bitset.mem dirty dst then begin
                        let k = st.ckind.(e) in
                        Util.Bitset.iter
                          (fun vid -> if k < 0 || cast_passes st k vid then ipush st dst vid)
                          set
                      end
                    done)
            st.iborrowed;
        Array.iter
          (fun (src, k, dst) ->
            let rsrc = irep st src in
            if not (Util.Bitset.mem dirty rsrc) then
              match Slots.find st.sols rsrc with
              | None -> ()
              | Some set ->
                  Util.Bitset.iter
                    (fun vid -> if k < 0 || cast_passes st k vid then ipush st dst vid)
                    set)
          edits.es_added_edges;
        (* Schedule: added ops, suspects, writers of rebuilt relation
           kinds, ops whose previous targets were reset, and every
           Start_activity op (transitions are rebuilt each solve). *)
        Array.iteri
          (fun oi (op : Graph.op) ->
            let oj = edits.es_new_to_old.(oi) in
            let kind = op.Graph.site.Node.o_kind in
            let is_start =
              match kind with Framework.Api.Start_activity -> true | _ -> false
            in
            let rerun =
              oj < 0
              || Util.Bitset.mem suspect oi
              || is_start
              || (!children_cleared && iwrites_children kind)
              || (!ids_cleared && iwrites_ids kind)
              || (!roots_cleared && iwrites_roots kind)
              || (!listeners_cleared && iwrites_listeners kind)
              || target_dirty oj
            in
            if rerun then schedule oi)
          st.iops;
        pending_decl :=
          !decl_suspect || !listeners_cleared || !roots_cleared || target_dirty old_op_count;
        pending_frags :=
          !frags_suspect || !children_cleared || target_dirty (old_op_count + 1);
        ipropagate st ~changed:on_changed
      in
      let iterations, ret_deps = iloop st ~record:true ~init:iwarm_init config in
      Graph.set_solution graph (isolution st);
      let stats =
        istats st ~iterations ~warm_solve:true ~dirty_comps:(Util.Bitset.cardinal dirty)
          ~reused_comps:!reused ~fallback:None
      in
      let carry i =
        if i < op_count then begin
          let oj = edits.es_new_to_old.(i) in
          if oj >= 0 then Some prev.sd_targets.(oj) else None
        end
        else if i = op_count then Some prev.sd_targets.(old_op_count)
        else Some prev.sd_targets.(old_op_count + 1)
      in
      let carry_map = if !reps_moved then Some (irep st) else None in
      let sd =
        icapture st ?carry_map
          ~fps:(prev.sd_class_fp, new_method_fp, prev.sd_layout_fp)
          ~seeds:new_seeds
          ~reuse_ops:(prev.sd_ops, edits.es_new_to_old)
          ~config ~app ~ret_deps carry
      in
      (stats, sd)

let run config (app : Framework.App.t) graph =
  Graph.reset_sets graph;
  match config.Config.solver with
  | Config.Interned ->
      let stats = run_interned config app graph in
      compute_taints app graph;
      stats
  | Config.Naive ->
      let state =
        {
          config;
          app;
          graph;
          worklist = Util.Worklist.create ();
          sets = Hashtbl.create 256;
          children = Hashtbl.create 64;
          parents = Hashtbl.create 64;
          ids = Hashtbl.create 64;
          roots = Hashtbl.create 16;
          listeners = Hashtbl.create 32;
          propagations = 0;
          op_applications = 0;
          dirty = false;
        }
      in
      let iterations = run_naive state in
      compute_taints app graph;
      {
        iterations;
        propagations = state.propagations;
        op_applications = state.op_applications;
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
      }
