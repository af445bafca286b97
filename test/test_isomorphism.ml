(* Property: static inflation and dynamic inflation build isomorphic
   structures.  For a random layout L and an activity that just calls
   setContentView(L):
   - the static analysis mints one abstract view per layout node, and
   - the dynamic semantics creates one concrete view per layout node,
   with identical classes, ids, and parent-child edges, related by the
   provenance map. *)

let layout_gen =
  let open QCheck.Gen in
  let cls = oneofl Framework.Views.concrete_view_classes in
  let container = oneofl Framework.Views.concrete_container_classes in
  let id k = Printf.sprintf "gid_%d" k in
  fix
    (fun self depth ->
      if depth = 0 then
        map2 (fun c k -> Layouts.Layout.node ~id:(id k) c) cls (int_range 0 30)
      else
        map3
          (fun c k children -> Layouts.Layout.node ~id:(id k) ~children c)
          container (int_range 0 30)
          (list_size (0 -- 3) (self (depth - 1))))
    2

let app_with_layout root =
  let def = Layouts.Layout.def ~name:"main" root in
  let package = Layouts.Package.create () in
  Layouts.Package.add package def;
  let program =
    Jir.Builder.(
      program
        [
          cls ~extends:"Activity"
            ~methods:
              [
                meth "onCreate"
                  [ layout_id "l" "main"; call Jir.Ast.this_var "setContentView" [ "l" ] ];
              ]
            "A";
        ])
  in
  Framework.App.make ~name:"Iso" program package

let isomorphism =
  QCheck.Test.make ~name:"static and dynamic inflation are isomorphic" ~count:60
    (QCheck.make
       ~print:(fun root -> Fmt.str "%a" Layouts.Layout.pp (Layouts.Layout.def ~name:"main" root))
       layout_gen)
    (fun root ->
      let app = app_with_layout root in
      let size = Layouts.Layout.size (Option.get (Layouts.Package.find app.package "main")) in
      let r = Gator.Analysis.analyze app in
      let static_views = Gator.Graph.inflated_views r.graph in
      let outcome = Dynamic.Interp.run app in
      let concrete_views =
        List.filter
          (fun (o : Dynamic.Heap.obj) ->
            match o.provenance with Dynamic.Heap.P_infl _ -> true | _ -> false)
          (Dynamic.Heap.objects outcome.heap)
      in
      (* same population *)
      if List.length static_views <> size then
        QCheck.Test.fail_reportf "static views %d <> layout size %d" (List.length static_views) size
      else if List.length concrete_views <> size then
        QCheck.Test.fail_reportf "concrete views %d <> layout size %d" (List.length concrete_views)
          size
      else begin
        (* every concrete view maps to a static abstraction with the
           same class, ids, and children *)
        let ok =
          List.for_all
            (fun (o : Dynamic.Heap.obj) ->
              match Dynamic.Heap.view_abstraction o with
              | Some abs ->
                  List.mem abs static_views
                  && Gator.Node.class_of_view abs = o.Dynamic.Heap.cls
                  && (match o.Dynamic.Heap.vid with
                     | Some vid ->
                         List.mem vid (Gator.Reader.ids r.graph abs)
                     | None -> Gator.Reader.ids r.graph abs = [])
                  && List.length o.Dynamic.Heap.children
                     = List.length (Gator.Reader.children r.graph abs)
              | None -> false)
            concrete_views
        in
        ok
      end)

let roots_match =
  QCheck.Test.make ~name:"activity root matches layout root" ~count:40
    (QCheck.make layout_gen)
    (fun root ->
      let app = app_with_layout root in
      let r = Gator.Analysis.analyze app in
      match Gator.Analysis.roots_of_activity r "A" with
      | [ abs ] -> Gator.Node.class_of_view abs = root.Layouts.Layout.view_class
      | _ -> false)

let suite = [ QCheck_alcotest.to_alcotest isomorphism; QCheck_alcotest.to_alcotest roots_match ]
