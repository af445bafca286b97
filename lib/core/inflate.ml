type facts = {
  children : (Node.view_abs * Node.view_abs) list;
  view_ids : (Node.view_abs * int) list;
  onclick : bool;
  fragments : bool;
}

let instantiate graph ~resources ~site (def : Layouts.Layout.def) =
  match Graph.find_inflation graph ~site ~layout:def.name with
  | Some views -> (views, None)
  | None ->
      let abs_of_path =
        let tbl = Hashtbl.create 16 in
        fun path (node : Layouts.Layout.node) ->
          match Hashtbl.find_opt tbl path with
          | Some v -> v
          | None ->
              let v =
                Node.V_infl
                  {
                    Node.v_site = site;
                    v_layout = def.name;
                    v_path = path;
                    v_cls = node.view_class;
                    v_vid = node.id;
                  }
              in
              Hashtbl.add tbl path v;
              v
      in
      let nodes = Layouts.Layout.nodes def in
      let view_ids = ref [] and onclick = ref false and fragments = ref false in
      let views =
        List.map
          (fun (path, (node : Layouts.Layout.node)) ->
            let view = abs_of_path path node in
            (match node.id with
            | Some id_name -> view_ids := (view, Layouts.Resource.view_id resources id_name) :: !view_ids
            | None -> ());
            (match node.onclick with
            | Some handler -> onclick := Graph.add_onclick graph view handler || !onclick
            | None -> ());
            (match node.fragment_class with
            | Some cls -> fragments := Graph.add_declared_fragment graph view cls || !fragments
            | None -> ());
            view)
          nodes
      in
      let children =
        List.map
          (fun (parent_path, child_path) ->
            match (Layouts.Layout.find def parent_path, Layouts.Layout.find def child_path) with
            | Some parent_node, Some child_node ->
                (abs_of_path parent_path parent_node, abs_of_path child_path child_node)
            | _ -> assert false)
          (Layouts.Layout.edges def)
      in
      Graph.record_inflation graph ~site ~layout:def.name views;
      (views, Some { children; view_ids = List.rev !view_ids; onclick = !onclick; fragments = !fragments })

let root = function
  | [] -> invalid_arg "Inflate.root: empty inflation"
  | r :: _ -> r
