open Gator

let mid name = { Node.mid_cls = "C"; mid_name = name; mid_arity = 0 }

let site ?(stmt = 0) name = { Node.s_in = mid name; s_stmt = stmt }

let var name v = Node.N_var (mid name, v)

let infl ?(path = []) ?(cls = "View") ?vid name =
  Node.V_infl { Node.v_site = site name; v_layout = "l"; v_path = path; v_cls = cls; v_vid = vid }

(* Rows over ids from (key, member) pairs. *)
let rows pairs =
  let n = List.fold_left (fun acc (k, _) -> max acc (k + 1)) 0 pairs in
  let a = Array.make n None in
  List.iter
    (fun (k, m) ->
      let b =
        match a.(k) with
        | Some b -> b
        | None ->
            let b = Util.Bitset.create () in
            a.(k) <- Some b;
            b
      in
      ignore (Util.Bitset.add b m))
    pairs;
  a

(* Install a solution holding the given structural facts the way a
   solve leaves one: rows over interned ids, read back on demand. *)
let install g ?(rep = [||]) ?(values = []) ?(children = []) ?(ids = []) ?(roots = [])
    ?(listeners = []) () =
  let it = Graph.interner g in
  let view = Intern.view it in
  let sets = rows (List.map (fun (n, v) -> (Intern.node it n, Intern.value it v)) values) in
  let children = List.map (fun (p, c) -> (view p, view c)) children in
  let ids = rows (List.map (fun (v, raw) -> (view v, Intern.rid it raw)) ids) in
  let roots = rows (List.map (fun (h, v) -> (Intern.holder it h, view v)) roots) in
  let listeners = rows (List.map (fun (v, l) -> (view v, Intern.listener it l)) listeners) in
  Graph.set_solution g
    {
      Graph.sol_rep = rep;
      sol_sets = sets;
      sol_children = rows children;
      sol_parents = rows (List.map (fun (p, c) -> (c, p)) children);
      sol_ids = ids;
      sol_roots = roots;
      sol_listeners = listeners;
      sol_taints = [||];
    }

(* Points-to rows live on component representatives: a member reads
   its representative's row, and a node the interner never saw reads
   empty without being minted. *)
let test_points_to_rows () =
  let g = Graph.create () in
  let a = var "m" "a" and b = var "m" "b" in
  let ia = Graph.node_id g a and ib = Graph.node_id g b in
  let rep = Array.init (max ia ib + 1) Fun.id in
  rep.(ib) <- ia;
  install g ~rep ~values:[ (a, Node.V_view_id 1); (a, Node.V_act "A") ] ();
  Alcotest.check Alcotest.int "set size" 2 (List.length (Reader.points_to g a));
  Alcotest.check Alcotest.bool "member reads its representative's row" true
    (Reader.points_to g a = Reader.points_to g b);
  Alcotest.check Alcotest.bool "indexed read = decode on call" true
    (Reader.find_points_to g b = Some (Reader.points_to g b));
  let nodes = Intern.node_count (Graph.interner g) in
  Alcotest.check Alcotest.bool "unknown node is empty" true (Reader.points_to g (var "m" "unseen") = []);
  Alcotest.check Alcotest.bool "unknown node is None" true (Reader.find_points_to g (var "m" "unseen") = None);
  Alcotest.check Alcotest.int "reads do not mint" nodes (Intern.node_count (Graph.interner g));
  Alcotest.check Alcotest.int "views" 0 (List.length (Reader.views_at g a))

(* The dedup key is the endpoint pair; the kinds already present
   between the two ride in the table's value. *)
let test_edges_dedup () =
  let g = Graph.create () in
  let a = var "m" "a" and b = var "m" "b" in
  Graph.add_edge g a b;
  Graph.add_edge g a b;
  Graph.add_edge g ~kind:(Graph.E_cast "Button") a b;
  Alcotest.check Alcotest.int "two distinct edges" 2 (Graph.edge_count g);
  Alcotest.check Alcotest.int "succs" 2 (List.length (Graph.succs g a));
  List.iter
    (fun kind -> Graph.add_edge g ~kind a b)
    Graph.[ E_cast "View"; E_cast "Button"; E_direct; E_cast "View" ];
  Graph.add_edge g b a;
  Alcotest.check Alcotest.int "three kinds one way, one edge back" 4 (Graph.edge_count g);
  Alcotest.check Alcotest.bool "newest first" true
    (Graph.succs g a = Graph.[ (E_cast "View", b); (E_cast "Button", b); (E_direct, b) ])

(* Ids are packed two to an int key; an id that does not fit would
   alias another pair's key and silently drop a real edge, so it is
   refused before anything is recorded. *)
let test_edge_pack_bound () =
  let g = Graph.create () in
  let bound = 1 lsl Intern.pack_bits in
  Graph.add_edge_ids g 1 0;
  List.iter
    (fun (src, dst) ->
      match Graph.add_edge_ids g src dst with
      | () -> Alcotest.failf "edge %d -> %d accepted" src dst
      | exception Invalid_argument _ -> ())
    [ (0, bound); (bound, 0); (-1, 0); (0, -1); (max_int, max_int) ];
  Alcotest.check Alcotest.int "only the packable edge" 1 (Graph.edge_count g);
  Alcotest.check Alcotest.bool "largest ids keep their halves apart" true
    (Intern.pack (bound - 1) 0 <> Intern.pack 0 (bound - 1))

let test_seeds_survive_reset () =
  let g = Graph.create () in
  let n = var "m" "x" in
  Graph.seed g n (Node.V_act "A");
  install g ~values:[ (n, Node.V_view_id 9) ] ();
  Alcotest.check Alcotest.int "set read" 1 (List.length (Reader.points_to g n));
  Graph.reset_sets g;
  Alcotest.check Alcotest.int "sets cleared" 0 (List.length (Reader.points_to g n));
  Alcotest.check Alcotest.int "seed kept" 1 (List.length (Graph.seeds g))

let test_children_relation () =
  let g = Graph.create () in
  let p = infl "a" and c1 = infl ~path:[ 0 ] "a" and c2 = infl ~path:[ 1 ] "a" in
  install g ~children:[ (p, c1); (p, c2) ] ();
  Alcotest.check Alcotest.int "children" 2 (List.length (Reader.children g p));
  let it = Graph.interner g in
  Alcotest.check Alcotest.bool "parents inverse" true
    (Graph.row (Graph.solution g).Graph.sol_parents (Intern.view it c1) <> None);
  Alcotest.check Alcotest.bool "leaf has no children" true (Reader.children g c2 = [])

(* The holder closure: a holder's roots and every view below them. *)
let test_descendants () =
  let g = Graph.create () in
  let a = infl "a" and b = infl ~path:[ 0 ] "a" and c = infl ~path:[ 0; 0 ] "a" in
  install g ~children:[ (a, b); (b, c) ] ~roots:[ (Node.H_act "A", b) ] ();
  let shown = Reader.holder_views g (Node.H_act "A") in
  Alcotest.check Alcotest.int "root and its subtree" 2 (List.length shown);
  Alcotest.check Alcotest.bool "transitive, not upward" true (List.mem c shown && not (List.mem a shown));
  Alcotest.check Alcotest.int "unknown holder shows nothing" 0
    (List.length (Reader.holder_views g (Node.H_act "Z")))

let test_descendants_cycle_safe () =
  (* The abstract parent-child relation can be cyclic (unlike the
     concrete heap); BFS must still terminate. *)
  let g = Graph.create () in
  let a = infl "a" and b = infl ~path:[ 0 ] "a" in
  install g ~children:[ (a, b); (b, a) ] ~roots:[ (Node.H_act "A", b) ] ();
  Alcotest.check Alcotest.int "cycle bounded, reaching back round it" 2
    (List.length (Reader.holder_views g (Node.H_act "A")))

let test_view_ids () =
  let g = Graph.create () in
  let v = infl "a" in
  install g ~ids:[ (v, 100); (v, 200) ] ();
  Alcotest.check Alcotest.bool "both ids" true
    (Reader.ids g v = [ 100; 200 ])

let test_holder_roots () =
  let g = Graph.create () in
  let v = infl "a" in
  install g ~roots:[ (Node.H_act "A", v) ] ();
  Alcotest.check Alcotest.int "root" 1
    (List.length (Reader.roots g (Node.H_act "A")));
  Alcotest.check Alcotest.int "holders" 1 (List.length (Graph.holders g));
  let holders = Intern.holder_count (Graph.interner g) in
  Alcotest.check Alcotest.bool "unknown holder has no roots" true
    (Reader.roots g (Node.H_act "B") = []);
  Alcotest.check Alcotest.int "reads do not mint holders" holders
    (Intern.holder_count (Graph.interner g))

let test_listeners_relation () =
  let g = Graph.create () in
  let v = infl "a" in
  let l = Node.L_act "A" in
  install g ~listeners:[ (v, (l, "OnClickListener")); (v, (l, "OnKeyListener")) ] ();
  Alcotest.check Alcotest.int "two registrations" 2
    (List.length (Reader.listeners g v));
  Alcotest.check Alcotest.int "views with listeners" 1 (List.length (Graph.views_with_listeners g))

let test_inflation_memo () =
  let g = Graph.create () in
  let s = site "a" in
  Alcotest.check Alcotest.bool "absent" true (Graph.find_inflation g ~site:s ~layout:"l" = None);
  Graph.record_inflation g ~site:s ~layout:"l" [ infl "a" ];
  Alcotest.check Alcotest.bool "present" true (Graph.find_inflation g ~site:s ~layout:"l" <> None);
  Alcotest.check Alcotest.int "inflated views" 1 (List.length (Graph.inflated_views g))

let test_ops_order () =
  let g = Graph.create () in
  let o1 = Graph.fresh_op g ~kind:Framework.Api.Find_view ~site:(site ~stmt:0 "m") ~recv:(var "m" "x") ~args:[] ~out:None in
  let o2 = Graph.fresh_op g ~kind:Framework.Api.Add_view ~site:(site ~stmt:1 "m") ~recv:(var "m" "y") ~args:[] ~out:None in
  Alcotest.check Alcotest.bool "creation order" true (Graph.ops g = [ o1; o2 ])

let test_locations () =
  let g = Graph.create () in
  Graph.add_edge g (var "m" "a") (var "m" "b");
  Graph.seed g (var "m" "c") (Node.V_act "A");
  Alcotest.check Alcotest.int "locations" 3 (List.length (Graph.locations g))

let test_dot_output () =
  let g = Graph.create () in
  Graph.add_edge g (var "m" "a") (var "m" "b");
  install g ~children:[ (infl "a", infl ~path:[ 0 ] "a") ] ();
  let dot = Fmt.str "%a" Reader.pp_dot g in
  Alcotest.check Alcotest.bool "digraph wrapper" true
    (String.length dot > 20
    && String.sub dot 0 7 = "digraph"
    && String.contains dot '}')

(* ------------------------------------------------------------------ *)
(* Frozen flow CSR and its SCC condensation *)

let test_frozen_flow_condensation () =
  let g = Graph.create () in
  let a = var "m" "a" and b = var "m" "b" and c = var "m" "c" and d = var "m" "d" in
  (* a -> b -> c -> a is a direct 3-cycle; d hangs off it through a
     cast edge, which must stay OUT of the condensation *)
  Graph.add_edge g a b;
  Graph.add_edge g b c;
  Graph.add_edge g c a;
  Graph.add_edge g ~kind:(Graph.E_cast "Button") c d;
  let fc = Graph.frozen_flow g in
  let id n = Graph.node_id g n in
  Alcotest.check Alcotest.int "snapshot covers the four nodes" 4 fc.Graph.fc_nodes;
  Alcotest.check Alcotest.int "largest scc is the 3-cycle" 3 fc.Graph.fc_largest_scc;
  Alcotest.check Alcotest.int "two components" 2 fc.Graph.fc_scc_count;
  let ra = fc.Graph.fc_rep.(id a) in
  Alcotest.check Alcotest.int "b joins a's component" ra fc.Graph.fc_rep.(id b);
  Alcotest.check Alcotest.int "c joins a's component" ra fc.Graph.fc_rep.(id c);
  Alcotest.check Alcotest.int "rep is the smallest member" (min (id a) (min (id b) (id c))) ra;
  Alcotest.check Alcotest.int "d is its own singleton" (id d) fc.Graph.fc_rep.(id d);
  (* condensed edges: exactly the cast edge survives — intra-component
     direct edges are subsumed by the component's shared set *)
  let condensed = ref [] in
  for r = 0 to fc.Graph.fc_nodes - 1 do
    for e = fc.Graph.fc_crow.(r) to fc.Graph.fc_crow.(r + 1) - 1 do
      condensed := (r, fc.Graph.fc_cdst.(e), fc.Graph.fc_ckind.(e)) :: !condensed
    done
  done;
  match !condensed with
  | [ (src, dst, k) ] ->
      Alcotest.check Alcotest.int "cast edge leaves the cycle rep" ra src;
      Alcotest.check Alcotest.int "cast edge reaches d" (id d) dst;
      Alcotest.check Alcotest.string "cast symbol kept" "Button" fc.Graph.fc_cast_names.(k)
  | es -> Alcotest.failf "expected exactly the cast edge, got %d condensed edges" (List.length es)

(* Regression: the [frozen_flow] memo is keyed on the edge count, so
   interner growth without new edges must serve the old snapshot (ids
   at or above [fc_nodes] are singleton components by construction),
   while adding an edge must rebuild over the grown node pool. *)
let test_frozen_flow_memo_invalidation () =
  let g = Graph.create () in
  let a = var "m" "a" and b = var "m" "b" in
  Graph.add_edge g a b;
  let fc0 = Graph.frozen_flow g in
  Alcotest.check Alcotest.int "snapshot covers both nodes" 2 fc0.Graph.fc_nodes;
  (* grow the interner without touching edges: memo hit, same snapshot *)
  let late = var "m" "late" in
  let late_id = Graph.node_id g late in
  Alcotest.check Alcotest.bool "late id falls outside the snapshot" true
    (late_id >= fc0.Graph.fc_nodes);
  let fc1 = Graph.frozen_flow g in
  Alcotest.check Alcotest.bool "memo hit serves the same snapshot" true (fc0 == fc1);
  (* a new edge invalidates the memo: the rebuild covers the late node *)
  Graph.add_edge g late a;
  let fc2 = Graph.frozen_flow g in
  Alcotest.check Alcotest.bool "edge growth rebuilds" true (fc1 != fc2);
  Alcotest.check Alcotest.int "rebuild covers the late node" 3 fc2.Graph.fc_nodes;
  Alcotest.check Alcotest.int "late node is now a tracked singleton" late_id
    fc2.Graph.fc_rep.(late_id)

(* ------------------------------------------------------------------ *)
(* The structural skeleton over the corpus *)

module Edge_set = Set.Make (struct
  type t = Node.t * Graph.edge_kind * Node.t

  let compare (s1, k1, d1) (s2, k2, d2) =
    let c = Node.compare s1 s2 in
    if c <> 0 then c
    else
      let c = compare k1 k2 in
      if c <> 0 then c else Node.compare d1 d2
end)

module Node_set = Set.Make (Node)

(* The old [succs] table held exactly the [add_edge] edges.  Rebuilt
   here from the frozen CSR, which holds every edge: the clone edges of
   [add_edge_ids] are the ones touching a context clone, and no
   [add_edge] edge touches one. *)
let csr_edges g =
  let it = Graph.interner g in
  let clones = Hashtbl.create 64 in
  let fc = Graph.frozen_flow g in
  for id = 0 to fc.Graph.fc_nodes - 1 do
    if Intern.is_ctx_clone it id then Hashtbl.replace clones id ()
  done;
  let skeleton = ref Edge_set.empty and clone_edges = ref 0 in
  for src = 0 to fc.Graph.fc_nodes - 1 do
    for e = fc.Graph.fc_row.(src) to fc.Graph.fc_row.(src + 1) - 1 do
      let dst = fc.Graph.fc_edst.(e) in
      if Hashtbl.mem clones src || Hashtbl.mem clones dst then incr clone_edges
      else
        let k = fc.Graph.fc_ekind.(e) in
        let kind = if k < 0 then Graph.E_direct else Graph.E_cast fc.Graph.fc_cast_names.(k) in
        skeleton := Edge_set.add (Intern.node_of it src, kind, Intern.node_of it dst) !skeleton
    done
  done;
  (!skeleton, !clone_edges, clones)

let check_skeleton name config app =
  let g = Extract.run config app in
  let it = Graph.interner g in
  let expected, clone_edges, clones = csr_edges g in
  let locations = Graph.locations g in
  let got =
    List.fold_left
      (fun acc src ->
        List.fold_left (fun acc (kind, dst) -> Edge_set.add (src, kind, dst) acc) acc (Graph.succs g src))
      Edge_set.empty locations
  in
  if not (Edge_set.equal expected got) then
    Alcotest.failf "%s: succs differ from the add_edge skeleton (%d vs %d edges)" name
      (Edge_set.cardinal expected) (Edge_set.cardinal got);
  Alcotest.check Alcotest.int (name ^ ": skeleton plus clone edges is every edge")
    (Graph.edge_count g) (Edge_set.cardinal got + clone_edges);
  if config.Config.inline_depth > 0 then
    Alcotest.check Alcotest.bool (name ^ ": the keyed run made clone edges") true (clone_edges > 0);
  Hashtbl.iter
    (fun id () ->
      if Graph.succs g (Intern.node_of it id) <> [] then
        Alcotest.failf "%s: clone %a has skeleton successors" name Node.pp (Intern.node_of it id))
    clones;
  (* the old [locations] of an unsolved graph: skeleton endpoints,
     seeded locations and op endpoints *)
  let old_locations =
    let add_op acc (op : Graph.op) =
      List.fold_left (Fun.flip Node_set.add) acc
        ((op.op_recv :: op.op_args) @ Option.to_list op.op_out)
    in
    let with_edges =
      Edge_set.fold (fun (s, _, d) acc -> Node_set.add s (Node_set.add d acc)) expected Node_set.empty
    in
    let it = Graph.interner g in
    let with_seeds =
      List.fold_left (fun acc (nid, _) -> Node_set.add (Intern.node_of it nid) acc) with_edges (Graph.seeds g)
    in
    List.fold_left add_op with_seeds (Graph.ops g)
  in
  let got_locations = Node_set.of_list locations in
  Alcotest.check Alcotest.int (name ^ ": locations has no duplicates") (List.length locations)
    (Node_set.cardinal got_locations);
  if not (Node_set.equal old_locations got_locations) then
    Alcotest.failf "%s: locations differ from the old definition (%d vs %d)" name
      (Node_set.cardinal old_locations) (Node_set.cardinal got_locations);
  let again = Graph.locations (Extract.run config app) in
  if not (List.equal Node.equal locations again) then
    Alcotest.failf "%s: locations order differs between two extractions" name

let test_corpus_skeleton () =
  let keyed_cs2 = { Config.default with inline_depth = 2 } in
  List.iter
    (fun spec ->
      let app = Corpus.Apps.generate spec in
      let name = spec.Corpus.Spec.sp_name in
      check_skeleton (name ^ "@0") Config.default app;
      check_skeleton (name ^ "@cs2") keyed_cs2 app)
    Corpus.Apps.specs

(* Copy-chain substitution over a pure copy cycle of clone variables:
   each context of [spin] clones [a] and [b], each the other's only
   source.  Candidates are visited in mint order, so the first-minted
   member of each cycle is the one demoted: it keeps its own row and
   the other aliases it.  (Demoting the later-minted member would
   leave both on that member's row; leaving the pair unsubstituted
   condenses it onto the smaller id, the same rows.) *)
let test_clone_cycle_demotes_first_minted () =
  let code =
    {|class Main extends Activity {
  method spin(): void {
    a = b;
    b = a;
  }
  method onCreate(): void {
    this.spin();
    this.spin();
  }
}|}
  in
  let app =
    match Framework.App.of_source ~name:"CloneCycle" ~code ~layouts:[] with
    | Ok app -> app
    | Error e -> Alcotest.failf "CloneCycle: %s" e
  in
  let g = Extract.run { Config.default with inline_depth = 2 } app in
  let it = Graph.interner g in
  let fc = Graph.frozen_flow g in
  let members name =
    List.filter_map
      (fun id ->
        match Intern.node_of it id with
        | Node.N_var (_, v) when Intern.is_ctx_clone it id && String.starts_with ~prefix:(name ^ "$") v ->
            Some (String.sub v 2 (String.length v - 2), id)
        | _ -> None)
      (List.init fc.Graph.fc_nodes Fun.id)
  in
  let a = members "a" and b = members "b" in
  Alcotest.check Alcotest.int "two contexts clone [a]" 2 (List.length a);
  List.iter
    (fun (ctx, ida) ->
      let idb = List.assoc ctx b in
      let first = min ida idb and second = max ida idb in
      Alcotest.check Alcotest.int (Printf.sprintf "$%s: the first-minted member keeps its row" ctx) first
        fc.Graph.fc_rep.(first);
      Alcotest.check Alcotest.int (Printf.sprintf "$%s: the other aliases it" ctx) first
        fc.Graph.fc_rep.(second))
    a

(* The stamp-array condensation against the hash-table reference:
   the same first-seen rows, byte for byte, on every graph family the
   solver freezes — plain corpus graphs, a cycle-heavy app, keyed cs-2
   graphs (whose freeze runs the copy-chain substitution first) and
   random graphs with repeated and cast edges. *)
let same_condensation name g =
  let fc = Graph.frozen_flow g in
  let oracle = Graph.freeze_with ~condense:Condense_oracle.build_condensed g in
  let check what a b = Alcotest.(check (array int)) (name ^ ": " ^ what) a b in
  check "fc_rep" oracle.Graph.fc_rep fc.Graph.fc_rep;
  check "fc_crow" oracle.fc_crow fc.fc_crow;
  check "fc_cdst" oracle.fc_cdst fc.fc_cdst;
  check "fc_ckind" oracle.fc_ckind fc.fc_ckind

let cycle_heavy () =
  Corpus.Gen.cyclic_app ~name:"CycleHeavy" ~chains:4 ~chain_len:24 ~two_cycles:6 ~bridges:8 ~seed:2014 ()

let test_condensation_oracle () =
  let keyed = { Config.default with Config.inline_depth = 2 } in
  List.iter
    (fun spec ->
      let app = Corpus.Gen.generate spec in
      same_condensation spec.Corpus.Spec.sp_name (Extract.run Config.default app))
    Corpus.Apps.specs;
  same_condensation "CycleHeavy" (Extract.run Config.default (cycle_heavy ()));
  List.iter
    (fun (name, app) -> same_condensation (name ^ "@cs2") (Extract.run keyed app))
    [
      ("CycleHeavy", cycle_heavy ());
      ("AliasHeavy", Corpus.Gen.alias_heavy_app ~name:"AliasHeavy" ~groups:4 ~sites_per_group:5 ~seed:11 ());
      ("ConnectBot", Corpus.Connectbot.app ());
    ]

let qcheck_condensation_oracle =
  QCheck.Test.make ~name:"condensation equals the hash-table reference on random graphs" ~count:200
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Util.Prng.create seed in
      let g = Graph.create () in
      let n = 1 + Util.Prng.int rng 40 in
      let node i = Node.N_field (Printf.sprintf "f%d" i) in
      for _ = 1 to Util.Prng.int rng (4 * n) do
        let kind = if Util.Prng.int rng 5 = 0 then Graph.E_cast (Printf.sprintf "C%d" (Util.Prng.int rng 3)) else Graph.E_direct in
        Graph.add_edge g ~kind (node (Util.Prng.int rng n)) (node (Util.Prng.int rng n))
      done;
      same_condensation (Printf.sprintf "random %d" seed) g;
      true)

let suite =
  [
    Alcotest.test_case "points-to rows decode through representatives" `Quick test_points_to_rows;
    Alcotest.test_case "edge dedup by kind" `Quick test_edges_dedup;
    Alcotest.test_case "edge ids past the packing bound raise" `Quick test_edge_pack_bound;
    Alcotest.test_case "reset keeps seeds" `Quick test_seeds_survive_reset;
    Alcotest.test_case "children relation" `Quick test_children_relation;
    Alcotest.test_case "descendants closure" `Quick test_descendants;
    Alcotest.test_case "descendants on cyclic relation" `Quick test_descendants_cycle_safe;
    Alcotest.test_case "view ids" `Quick test_view_ids;
    Alcotest.test_case "holder roots" `Quick test_holder_roots;
    Alcotest.test_case "listener registrations" `Quick test_listeners_relation;
    Alcotest.test_case "inflation memo" `Quick test_inflation_memo;
    Alcotest.test_case "op creation order" `Quick test_ops_order;
    Alcotest.test_case "locations" `Quick test_locations;
    Alcotest.test_case "dot output" `Quick test_dot_output;
    Alcotest.test_case "frozen flow: scc condensation" `Quick test_frozen_flow_condensation;
    Alcotest.test_case "frozen flow: condensation equals its reference" `Quick test_condensation_oracle;
    QCheck_alcotest.to_alcotest qcheck_condensation_oracle;
    Alcotest.test_case "frozen flow: memo invalidation" `Quick
      test_frozen_flow_memo_invalidation;
    Alcotest.test_case "skeleton succs and locations over the corpus" `Quick test_corpus_skeleton;
    Alcotest.test_case "a clone copy cycle demotes its first-minted member" `Quick
      test_clone_cycle_demotes_first_minted;
  ]
