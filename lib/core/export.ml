module J = Util.Json

let mid (m : Node.mid) =
  J.Obj [ ("class", J.String m.mid_cls); ("method", J.String m.mid_name); ("arity", J.Int m.mid_arity) ]

let site (s : Node.site) = J.Obj [ ("in", mid s.s_in); ("stmt", J.Int s.s_stmt) ]

let view = function
  | Node.V_infl i ->
      J.Obj
        [
          ("kind", J.String "inflated");
          ("class", J.String i.v_cls);
          ("layout", J.String i.v_layout);
          ("path", J.List (List.map (fun n -> J.Int n) i.v_path));
          ("site", site i.v_site);
          ("id", match i.v_vid with Some v -> J.String v | None -> J.Null);
        ]
  | Node.V_alloc a ->
      J.Obj [ ("kind", J.String "allocated"); ("class", J.String a.a_cls); ("site", site a.a_site) ]

let value = function
  | Node.V_view v -> J.Obj [ ("view", view v) ]
  | Node.V_act a -> J.Obj [ ("activity", J.String a) ]
  | Node.V_obj a ->
      J.Obj [ ("object", J.Obj [ ("class", J.String a.a_cls); ("site", site a.a_site) ]) ]
  | Node.V_layout_id id -> J.Obj [ ("layout_id", J.Int id) ]
  | Node.V_view_id id -> J.Obj [ ("view_id", J.Int id) ]
  | Node.V_layout_top -> J.Obj [ ("layout_top", J.Bool true) ]
  | Node.V_view_id_top -> J.Obj [ ("view_id_top", J.Bool true) ]

let listener = function
  | Node.L_alloc a ->
      J.Obj [ ("kind", J.String "object"); ("class", J.String a.a_cls); ("site", site a.a_site) ]
  | Node.L_act a -> J.Obj [ ("kind", J.String "activity"); ("class", J.String a) ]

let views vs = J.List (List.map view vs)

let op (r : Analysis.t) (o : Graph.op) =
  let base =
    [
      ("kind", J.String (Framework.Api.kind_label o.site.o_kind));
      ("site", site o.site.o_site);
      ("receivers", views (Analysis.op_receiver_views r o));
      ("arguments", views (Analysis.op_child_views r o));
      ("results", views (Analysis.op_result_views r o));
    ]
  in
  let listeners =
    match o.site.o_kind with
    | Framework.Api.Set_listener _ ->
        [ ("listeners", J.List (List.map listener (Analysis.op_listeners r o))) ]
    | _ -> []
  in
  J.Obj (base @ listeners)

let interaction (ix : Analysis.interaction) =
  J.Obj
    [
      ("activity", J.String ix.ix_activity);
      ("view", view ix.ix_view);
      ("event", J.String (Framework.Listeners.event_name ix.ix_event));
      ("listener", listener ix.ix_listener);
      ("handler", mid ix.ix_handler);
    ]

let config (c : Config.t) =
  J.Obj
    [
      ("cast_filtering", J.Bool c.cast_filtering);
      ("findone_refinement", J.Bool c.findone_refinement);
      ("listener_callbacks", J.Bool c.listener_callbacks);
      ("model_dialogs", J.Bool c.model_dialogs);
      ("inline_depth", J.Int c.inline_depth);
    ]

let solution (r : Analysis.t) =
  let g = r.graph in
  let all_views =
    Graph.inflated_views g
    @ List.filter_map
        (fun (a : Node.alloc_site) ->
          if Framework.Views.is_view_class r.app.hierarchy a.a_cls then Some (Node.V_alloc a)
          else None)
        (Graph.allocs g)
  in
  let view_facts v =
    J.Obj
      [
        ("view", view v);
        ( "ids",
          J.List
            (List.filter_map
               (fun id ->
                 Option.map
                   (fun name -> J.String name)
                   (Layouts.Resource.view_name (Layouts.Package.resources r.app.package) id))
               (Graph.Int_set.elements (Graph.ids_of_view g v))) );
        ("children", views (Graph.View_set.elements (Graph.children_of g v)));
        ( "listeners",
          J.List
            (List.map
               (fun (l, iface) -> J.Obj [ ("listener", listener l); ("interface", J.String iface) ])
               (Graph.Listener_set.elements (Graph.listeners_of_view g v))) );
      ]
  in
  let activities =
    List.map
      (fun (cls : Jir.Ast.cls) ->
        J.Obj
          [
            ("class", J.String cls.c_name);
            ("roots", views (Analysis.roots_of_activity r cls.c_name));
          ])
      (Framework.App.activity_classes r.app)
  in
  J.Obj
    [
      ("app", J.String r.app.Framework.App.name);
      ("config", config r.config);
      ("solve_seconds", J.Float r.solve_seconds);
      ("operations", J.List (List.map (op r) (Analysis.ops r)));
      ("views", J.List (List.map view_facts all_views));
      ("activities", J.List activities);
      ("interactions", J.List (List.map interaction (Analysis.interactions r)));
      ( "transitions",
        J.List
          (List.map
             (fun (a, b) -> J.Obj [ ("from", J.String a); ("to", J.String b) ])
             (Analysis.transitions r)) );
    ]

let to_string ?pretty r = J.to_string ?pretty (solution r)
