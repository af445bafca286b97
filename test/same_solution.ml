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
  Graph.inflated_views g
  @ List.concat_map (Reader.views_at g) (Graph.locations g)
  @ Graph.views_with_listeners g
  @ List.concat_map (Reader.roots g) (Graph.holders g)

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
      let va = Reader.points_to a.graph node and vb = Reader.points_to b.graph node in
      if va <> vb then
        fail "points-to sets differ at %a (%d vs %d values)" Node.pp node (List.length va) (List.length vb))
    locations;
  (* Taint rows, node by node, over every node either side taints. *)
  let tainted (r : Analysis.t) = List.map fst (Reader.tainted_nodes r.graph) in
  List.iter
    (fun node ->
      let ta = Reader.taints a.graph node and tb = Reader.taints b.graph node in
      if ta <> tb then
        fail "taint rows differ at %a (%d vs %d values)" Node.pp node (List.length ta) (List.length tb))
    (List.sort_uniq Node.compare (tainted a @ tainted b));
  let views = List.sort_uniq Node.compare_view (all_views a @ all_views b) in
  List.iter
    (fun view ->
      let differ read = read a.graph view <> read b.graph view in
      if differ Reader.children then fail "children differ at %a" Node.pp_view view;
      if differ Reader.ids then fail "ids differ at %a" Node.pp_view view;
      if differ Reader.listeners then fail "listeners differ at %a" Node.pp_view view;
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
      if Reader.roots a.graph holder <> Reader.roots b.graph holder then
        fail "roots differ at %a" Node.pp_holder holder)
    ha;
  let ta = Analysis.transitions a and tb = Analysis.transitions b in
  if ta <> tb then fail "transitions differ (%d vs %d)" (List.length ta) (List.length tb);
  let d = Diff.compare a b in
  if not (Diff.is_empty d) then fail "op-level diff non-empty:@.%a" Diff.pp d
