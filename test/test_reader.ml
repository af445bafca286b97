(* The reader against a direct walk of the rows.  [Same_solution]
   compares engines through [Reader] itself, so a reader bug would
   cancel out there; here every answer is checked against the row's
   bits decoded one by one ([Util.Bitset.elements], the interner's
   decoders, a sort), over every node, view and holder id the
   interner holds. *)
open Gator

let walk of_id compare (rows : Graph.rows) i =
  if i < 0 || i >= Array.length rows then []
  else match rows.(i) with None -> [] | Some b -> List.sort compare (List.map of_id (Util.Bitset.elements b))

let compare_registration (l1, i1) (l2, i2) =
  match Node.compare_listener l1 l2 with 0 -> String.compare i1 i2 | c -> c

(* [id_carriers] over the id rows, and over a captured solve's inverse
   rows when [by_id] is given, against the rows that hold the name's
   symbol or the ⊤ sentinel's. *)
let check_id_carriers name ?by_id (g : Graph.t) package =
  let it = Graph.interner g and sol = Graph.solution g in
  let names =
    List.sort_uniq String.compare
      ("no_such_id_zzz"
      :: List.filter_map
           (fun wid -> match Intern.view_of it wid with Node.V_infl { Node.v_vid = Some n; _ } -> Some n | _ -> None)
           (List.init (Intern.view_count it) Fun.id))
  in
  List.iter
    (fun id_name ->
      let declared = Layouts.Resource.find_view_id (Layouts.Package.resources package) id_name in
      let syms = List.filter_map (Intern.rid_opt it) (Node.top_view_id_raw :: Option.to_list declared) in
      let expected =
        List.filter
          (fun wid -> List.exists (fun s -> List.mem s (walk Fun.id Int.compare sol.Graph.sol_ids wid)) syms)
          (List.init (Array.length sol.Graph.sol_ids) Fun.id)
      in
      let read by_id = Util.Bitset.elements (Reader.id_carriers ?by_id g package id_name) in
      if read None <> expected then Alcotest.failf "%s: id carriers of %S differ from the row walk" name id_name;
      if by_id <> None && read by_id <> expected then
        Alcotest.failf "%s: id carriers of %S differ over the inverse rows" name id_name)
    names

let check name (g : Graph.t) =
  let it = Graph.interner g and sol = Graph.solution g in
  let fail what pp key = Alcotest.failf "%s: %s differs from the row walk at %a" name what pp key in
  let values = walk (Intern.value_of it) Node.compare_value in
  let tainted = ref [] in
  for nid = Intern.node_count it - 1 downto 0 do
    let node = Intern.node_of it nid in
    let rep = if nid < Array.length sol.Graph.sol_rep then sol.Graph.sol_rep.(nid) else nid in
    let expected = values sol.Graph.sol_sets rep in
    if Reader.points_to g node <> expected then fail "points-to" Node.pp node;
    if Reader.find_points_to g node <> Some expected then fail "decoded points-to" Node.pp node;
    let views = List.rev (List.filter_map Node.view_of_value expected) in
    if Reader.views_at g node <> views then fail "views" Node.pp node;
    let taints = values sol.Graph.sol_taints nid in
    if Reader.taints g node <> taints then fail "taints" Node.pp node;
    if taints <> [] then tainted := (node, taints) :: !tainted
  done;
  if Reader.tainted_nodes g <> !tainted then Alcotest.failf "%s: tainted nodes differ from the row walk" name;
  for wid = 0 to Intern.view_count it - 1 do
    let view = Intern.view_of it wid in
    if Reader.children g view <> walk (Intern.view_of it) Node.compare_view sol.Graph.sol_children wid then
      fail "children" Node.pp_view view;
    if Reader.ids g view <> walk (Intern.rid_of it) Int.compare sol.Graph.sol_ids wid then
      fail "ids" Node.pp_view view;
    if Reader.listeners g view <> walk (Intern.listener_of it) compare_registration sol.Graph.sol_listeners wid
    then fail "listeners" Node.pp_view view
  done;
  for hid = 0 to Intern.holder_count it - 1 do
    let holder = Intern.holder_of it hid in
    if Reader.roots g holder <> walk (Intern.view_of it) Node.compare_view sol.Graph.sol_roots hid then
      fail "roots" Node.pp_holder holder
  done

let test_corpus () =
  List.iter
    (fun (spec : Corpus.Spec.t) ->
      let r = Analysis.analyze (Corpus.Gen.generate spec) in
      check spec.Corpus.Spec.sp_name r.Analysis.graph;
      check_id_carriers spec.Corpus.Spec.sp_name r.Analysis.graph r.Analysis.app.Framework.App.package)
    Corpus.Apps.specs

let test_cs2 () =
  let app = Corpus.Gen.generate (Option.get (Corpus.Apps.by_name "APV")) in
  check "APV cs-2" (Analysis.analyze ~config:{ Config.default with inline_depth = 2 } app).Analysis.graph

let test_reflective () =
  let app = Corpus.Gen.reflective_app ~layouts:3 ~seed:42 () in
  let _, solved = Incremental.analyze_solved app in
  check "ReflHeavy" solved.Solve.sd_graph;
  check_id_carriers "ReflHeavy" ~by_id:solved.Solve.sd_by_id solved.Solve.sd_graph app.Framework.App.package

(* Components with many members: each reads its representative's
   row. *)
let test_cyclic () =
  let app =
    Corpus.Gen.cyclic_app ~name:"RCycle" ~chains:3 ~chain_len:9 ~two_cycles:2 ~bridges:4 ~seed:23 ()
  in
  check "RCycle" (Analysis.analyze app).Analysis.graph

(* A warm-patched state: its rows alias the previous solve's. *)
let test_warm () =
  let base = Corpus.Gen.generate (Option.get (Corpus.Apps.by_name "XBMC")) in
  let _, prev = Incremental.analyze_solved base in
  let patch =
    Corpus.Patch.Add_stmt
      { cls = "Activity_0"; meth = "onCreate"; arity = 0; stmt = Jir.Ast.New ("q_tmp", "android.widget.Button") }
  in
  let patched = Result.get_ok (Corpus.Patch.apply base [ patch ]) in
  let r, solved = Incremental.analyze_incremental ~prev patched in
  Alcotest.(check bool) "solved warm" true r.Analysis.stats.Solve.warm_solve;
  check "XBMC+stmt" solved.Solve.sd_graph;
  check_id_carriers "XBMC+stmt" ~by_id:solved.Solve.sd_by_id solved.Solve.sd_graph patched.Framework.App.package

let suite =
  [
    Alcotest.test_case "reflective app: reads = row walk" `Quick test_reflective;
    Alcotest.test_case "cs-2 app: reads = row walk" `Quick test_cs2;
    Alcotest.test_case "cycle-heavy app: reads = row walk" `Quick test_cyclic;
    Alcotest.test_case "warm-patched state: reads = row walk" `Quick test_warm;
    Alcotest.test_case "corpus apps: reads = row walk" `Slow test_corpus;
  ]
