(* The one solution comparator every engine differential uses: two
   analyses of the same app must agree on points-to sets, taint rows,
   view relations (children, ids, listeners, onclick handlers, declared
   fragments), holder roots, transitions, and the op-level [Diff].
   Handlers and fragment classes are read from each side's layouts. *)
open Gator

(* Every abstract view mentioned by a solution: inflated views, views
   inside points-to sets, relation keys, and holder roots. *)
let all_views (r : Analysis.t) =
  let g = r.graph in
  let add acc view = Graph.View_set.add view acc in
  let acc = List.fold_left add Graph.View_set.empty (Graph.inflated_views g) in
  let acc =
    List.fold_left
      (fun acc node -> List.fold_left add acc (Graph.views_of g node))
      acc (Graph.locations g)
  in
  let acc = List.fold_left add acc (Graph.views_with_listeners g) in
  List.fold_left
    (fun acc holder -> Graph.View_set.union acc (Graph.roots_of_holder g holder))
    acc (Graph.holders g)

let check name (a : Analysis.t) (b : Analysis.t) =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) name in
  (* Points-to sets over the union of both graphs' locations.  A
     context-keyed graph's [locations] miss clone nodes with empty
     solutions (clone edges never enter the structural tables), but an
     inlined side lists them all, so the union still covers every clone
     row. *)
  let locations =
    List.sort_uniq Node.compare (Graph.locations a.graph @ Graph.locations b.graph)
  in
  List.iter
    (fun node ->
      let va = Graph.set_of a.graph node and vb = Graph.set_of b.graph node in
      if not (Graph.VS.equal va vb) then
        fail "points-to sets differ at %a (%d vs %d values)" Node.pp node (Graph.VS.cardinal va)
          (Graph.VS.cardinal vb))
    locations;
  (* Taint rows, node by node, over every node either side taints. *)
  let tainted (r : Analysis.t) = List.map fst (Graph.tainted_nodes r.graph) in
  List.iter
    (fun node ->
      let ta = Graph.taints_of a.graph node and tb = Graph.taints_of b.graph node in
      if not (Graph.VS.equal ta tb) then
        fail "taint rows differ at %a (%d vs %d values)" Node.pp node (Graph.VS.cardinal ta) (Graph.VS.cardinal tb))
    (List.sort_uniq Node.compare (tainted a @ tainted b));
  let views = Graph.View_set.union (all_views a) (all_views b) in
  Graph.View_set.iter
    (fun view ->
      if not (Graph.View_set.equal (Graph.children_of a.graph view) (Graph.children_of b.graph view))
      then fail "children differ at %a" Node.pp_view view;
      if not (Graph.Int_set.equal (Graph.ids_of_view a.graph view) (Graph.ids_of_view b.graph view))
      then fail "ids differ at %a" Node.pp_view view;
      if
        not
          (Graph.Listener_set.equal
             (Graph.listeners_of_view a.graph view)
             (Graph.listeners_of_view b.graph view))
      then fail "listeners differ at %a" Node.pp_view view;
      let derived f (r : Analysis.t) = f r.app.Framework.App.package view in
      if derived Inflate.onclick a <> derived Inflate.onclick b then
        fail "onclick handlers differ at %a" Node.pp_view view;
      if derived Inflate.declared_fragment a <> derived Inflate.declared_fragment b then
        fail "declared fragments differ at %a" Node.pp_view view)
    views;
  let holders (r : Analysis.t) = List.sort Node.compare_holder (Graph.holders r.graph) in
  let ha = holders a and hb = holders b in
  if not (List.equal (fun x y -> Node.compare_holder x y = 0) ha hb) then
    fail "holder populations differ (%d vs %d)" (List.length ha) (List.length hb);
  List.iter
    (fun holder ->
      if
        not
          (Graph.View_set.equal (Graph.roots_of_holder a.graph holder)
             (Graph.roots_of_holder b.graph holder))
      then fail "roots differ at %a" Node.pp_holder holder)
    ha;
  let ta = Analysis.transitions a and tb = Analysis.transitions b in
  if ta <> tb then fail "transitions differ (%d vs %d)" (List.length ta) (List.length tb);
  let d = Diff.compare a b in
  if not (Diff.is_empty d) then fail "op-level diff non-empty:@.%a" Diff.pp d
