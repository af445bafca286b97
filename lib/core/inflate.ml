type facts = {
  children : (Node.view_abs * Node.view_abs) list;
  view_ids : (Node.view_abs * int) list;
  onclick : bool;
  fragments : bool;
}

(* The facts of an inflation of [def] whose views are [views]: ids in
   preorder, parent-child pairs in layout edge order.  Each view names
   its path, so the memo's list maps back onto the layout's nodes. *)
let facts ~resources (def : Layouts.Layout.def) views =
  let by_path = Hashtbl.create 16 in
  List.iter (function Node.V_infl v as view -> Hashtbl.replace by_path v.Node.v_path view | Node.V_alloc _ -> ()) views;
  let view path = Hashtbl.find by_path path in
  let nodes = Layouts.Layout.nodes def in
  {
    children = List.map (fun (parent, child) -> (view parent, view child)) (Layouts.Layout.edges def);
    view_ids =
      List.filter_map
        (fun (path, (node : Layouts.Layout.node)) ->
          Option.map (fun id_name -> (view path, Layouts.Resource.view_id resources id_name)) node.id)
        nodes;
    onclick = List.exists (fun (_, (node : Layouts.Layout.node)) -> node.onclick <> None) nodes;
    fragments = List.exists (fun (_, (node : Layouts.Layout.node)) -> node.fragment_class <> None) nodes;
  }

let instantiate graph ~resources ~site (def : Layouts.Layout.def) =
  match Graph.find_inflation graph ~site ~layout:def.name with
  | Some views -> (views, None)
  | None ->
      let views =
        List.map
          (fun (path, (node : Layouts.Layout.node)) ->
            Node.V_infl
              { Node.v_site = site; v_layout = def.name; v_path = path; v_cls = node.view_class; v_vid = node.id })
          (Layouts.Layout.nodes def)
      in
      Graph.record_inflation graph ~site ~layout:def.name views;
      (views, Some (facts ~resources def views))

let root = function
  | [] -> invalid_arg "Inflate.root: empty inflation"
  | r :: _ -> r

(* The layout node an inflated view was minted from: its layout's
   (expanded) definition, at its path. *)
let node_of package = function
  | Node.V_infl v ->
      Option.bind (Layouts.Package.find package v.Node.v_layout) (fun def ->
          Layouts.Layout.find def v.v_path)
  | Node.V_alloc _ -> None

let onclick package view = Option.bind (node_of package view) (fun n -> n.Layouts.Layout.onclick)

let declared_fragment package view =
  Option.bind (node_of package view) (fun n -> n.Layouts.Layout.fragment_class)

(* A memo entry's views are its layout's nodes in preorder, so one walk
   of the layout tree pairs them, with no per-view lookup. *)
let iter_memo graph package f =
  let rec walk views (node : Layouts.Layout.node) =
    match views with
    | [] -> []
    | view :: rest ->
        f view node;
        List.fold_left walk rest node.children
  in
  List.iter
    (fun (_, layout, views) ->
      Option.iter (fun (def : Layouts.Layout.def) -> ignore (walk views def.root))
        (Layouts.Package.find package layout))
    (Graph.inflation_entries graph)
