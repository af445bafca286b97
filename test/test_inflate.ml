open Gator

let resources = Layouts.Resource.create ()

let layout =
  Layouts.Layout.parse_exn ~name:"l"
    {|<RelativeLayout>
        <ViewFlipper android:id="@+id/flip" />
        <LinearLayout android:id="@+id/grp"><Button android:id="@+id/ok" /></LinearLayout>
      </RelativeLayout>|}

let () = Layouts.Layout.register resources layout

let site = { Node.s_in = { Node.mid_cls = "C"; mid_name = "m"; mid_arity = 0 }; s_stmt = 3 }

let instantiate ?(site = site) g = Inflate.instantiate g ~resources ~site layout

(* The facts of a fresh instantiation; a memo hit has none. *)
let fresh g =
  match instantiate g with
  | views, Some facts -> (views, facts)
  | _, None -> Alcotest.fail "first instantiation returned no facts"

let test_mints_all_nodes () =
  let g = Graph.create () in
  let views, _ = fresh g in
  Alcotest.check Alcotest.int "one abstraction per layout node" 4 (List.length views);
  Alcotest.check Alcotest.int "recorded" 4 (List.length (Graph.inflated_views g))

let test_root_first () =
  let g = Graph.create () in
  let views, _ = fresh g in
  match Inflate.root views with
  | Node.V_infl i ->
      Alcotest.check Alcotest.string "root class" "RelativeLayout" i.v_cls;
      Alcotest.check (Alcotest.list Alcotest.int) "root path" [] i.v_path
  | Node.V_alloc _ -> Alcotest.fail "root must be inflated"

let test_ids_assigned () =
  let g = Graph.create () in
  let views, facts = fresh g in
  let flip = List.nth views 1 in
  let expected = Layouts.Resource.view_id resources "flip" in
  Alcotest.check Alcotest.bool "flip id" true (List.mem (flip, expected) facts.Inflate.view_ids);
  Alcotest.check Alcotest.bool "root has no id" false
    (List.mem_assoc (Inflate.root views) facts.Inflate.view_ids);
  Alcotest.check Alcotest.int "three ids" 3 (List.length facts.Inflate.view_ids)

let test_edges_mirror_layout () =
  let g = Graph.create () in
  let views, facts = fresh g in
  let root = Inflate.root views in
  let children_of v = List.filter_map (fun (p, c) -> if p = v then Some c else None) facts.Inflate.children in
  Alcotest.check Alcotest.int "root children" 2 (List.length (children_of root));
  Alcotest.check Alcotest.int "one edge per non-root view" 3 (List.length facts.Inflate.children);
  Alcotest.check Alcotest.bool "children are minted views" true
    (List.for_all (fun (p, c) -> List.mem p views && List.mem c views) facts.Inflate.children)

let test_memoized () =
  let g = Graph.create () in
  let a, _ = fresh g in
  let b, facts = instantiate g in
  Alcotest.check Alcotest.bool "same list" true (a == b || a = b);
  Alcotest.check Alcotest.bool "no facts on a memo hit" true (facts = None);
  Alcotest.check Alcotest.int "no duplicates" 4 (List.length (Graph.inflated_views g))

let test_distinct_sites_distinct_views () =
  let g = Graph.create () in
  let other_site = { site with Node.s_stmt = 9 } in
  let a, _ = instantiate g in
  let b, facts = instantiate ~site:other_site g in
  Alcotest.check Alcotest.bool "fresh abstractions per site" true (List.for_all2 ( <> ) a b);
  Alcotest.check Alcotest.bool "fresh facts per site" true (facts <> None);
  Alcotest.check Alcotest.int "both recorded" 8 (List.length (Graph.inflated_views g))

let test_root_of_empty () =
  Alcotest.check_raises "empty inflation" (Invalid_argument "Inflate.root: empty inflation")
    (fun () -> ignore (Inflate.root []))

let suite =
  [
    Alcotest.test_case "mints one view per node" `Quick test_mints_all_nodes;
    Alcotest.test_case "root is first" `Quick test_root_first;
    Alcotest.test_case "ids assigned from resources" `Quick test_ids_assigned;
    Alcotest.test_case "parent-child mirrors layout" `Quick test_edges_mirror_layout;
    Alcotest.test_case "memoized per (site, layout)" `Quick test_memoized;
    Alcotest.test_case "distinct sites mint fresh views" `Quick test_distinct_sites_distinct_views;
    Alcotest.test_case "root of empty rejected" `Quick test_root_of_empty;
  ]
