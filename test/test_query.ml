(* The query engine reads the solver's rows.  Every answer must equal
   the forward projections [Analysis] reads from the same app, whatever
   [budget] a caller passes (it has no effect).  The battery mirrors
   the three-engine differential in [test_intern.ml]: corpus apps,
   qcheck random apps, cycle-heavy apps, incrementally patched apps,
   sequentially and under the worker pool at jobs 1 and 4. *)
open Gator

(* Budgets to pass: none of them may change an answer. *)
let budgets = [ 0; max_int ]

let pp_values = Fmt.Dump.list Node.pp_value

let pp_views = Fmt.Dump.list Node.pp_view

(* Every query surface of a fresh handle over [solved] against forward
   projections of [r] (which may be a differently produced analysis of
   the same app — e.g. a cold solve vs a warm-captured state). *)
let check_queries name (r : Analysis.t) solved =
  let hierarchy = r.Analysis.app.Framework.App.hierarchy in
  let q = Query.create ~hierarchy solved in
  let it = Query.interner q in
  (* points-to at every location, at every budget *)
  List.iter
    (fun node ->
      let expected = Analysis.values_at r node in
      List.iter
        (fun budget ->
          match Query.points_to ~budget q node with
          | None -> Alcotest.failf "%s[b=%d]: %a unknown to the query engine" name budget Node.pp node
          | Some got ->
              if List.compare Node.compare_value expected got <> 0 then
                Alcotest.failf "%s[b=%d]: query differs at %a:@.  forward %a@.  query   %a" name
                  budget Node.pp node pp_values expected pp_values got)
        budgets)
    (Graph.locations r.Analysis.graph);
  (* views-of-listener vs the inverse of the forward registration table *)
  let module LM = Map.Make (struct
    type t = Node.listener_abs

    let compare = Node.compare_listener
  end) in
  let registered = ref LM.empty in
  for wid = 0 to Intern.view_count it - 1 do
    let w = Intern.view_of it wid in
    List.iter
      (fun (l, _iface) ->
        registered :=
          LM.update l (function None -> Some [ w ] | Some ws -> Some (w :: ws)) !registered)
      (Analysis.listeners_of_view r w)
  done;
  LM.iter
    (fun l ws ->
      let expected = List.sort Node.compare_view ws in
      let got = Query.views_of_listener q l in
      if List.compare Node.compare_view expected got <> 0 then
        Alcotest.failf "%s: views-of-listener differs at %a:@.  forward %a@.  query   %a" name
          Node.pp_listener l pp_views expected pp_views got)
    !registered;
  Alcotest.(check (list reject))
    (name ^ ": unregistered listener answers empty")
    []
    (Query.views_of_listener q (Node.L_act "NoSuchListener_zzz"));
  (* activities-of-id vs forward views_with_id x views_of_holder *)
  let id_names =
    List.sort_uniq String.compare
      (List.filter_map
         (fun wid ->
           match Intern.view_of it wid with
           | Node.V_infl { Node.v_vid = Some n; _ } -> Some n
           | _ -> None)
         (List.init (Intern.view_count it) Fun.id))
  in
  List.iter
    (fun id_name ->
      let with_id = Analysis.views_with_id r id_name in
      let mem v vs = List.exists (fun v' -> Node.compare_view v v' = 0) vs in
      let expected =
        List.sort_uniq String.compare
          (List.filter_map
             (fun (cls : Jir.Ast.cls) ->
               let shown = Analysis.views_of_holder r (Node.H_act cls.Jir.Ast.c_name) in
               if List.exists (fun v -> mem v shown) with_id then Some cls.Jir.Ast.c_name
               else None)
             (Framework.App.activity_classes r.Analysis.app))
      in
      let got = Query.activities_of_id q id_name in
      if expected <> got then
        Alcotest.failf "%s: activities-of-id %S differs:@.  forward %a@.  query   %a" name
          id_name
          Fmt.(Dump.list string)
          expected
          Fmt.(Dump.list string)
          got)
    ("no_such_id_zzz" :: id_names)

(* Does [r]'s child relation nest (some view has a grandchild) and
   close a cycle (some view is its own strict descendant)?  Walking up
   from an id's carriers must then stop at views already seen. *)
let nested_cyclic_children (r : Analysis.t) =
  let g = r.Analysis.graph in
  let it = Graph.interner g in
  let views = List.init (Intern.view_count it) (Intern.view_of it) in
  let children = Reader.children g in
  let strict_descendant v =
    let seen = Hashtbl.create 16 in
    let rec visit w =
      Node.compare_view w v = 0
      || ((not (Hashtbl.mem seen w)) && (Hashtbl.replace seen w (); List.exists visit (children w)))
    in
    List.exists visit (children v)
  in
  List.exists (fun v -> List.exists (fun c -> children c <> []) (children v)) views
  && List.exists strict_descendant views

(* Full solve that captures state, checked against its own projections. *)
let check_app name app =
  let r, solved = Incremental.analyze_solved app in
  check_queries name r solved;
  (r, solved)

(* ------------------------------------------------------------------ *)

let test_connectbot () = ignore (check_app "ConnectBot" (Corpus.Connectbot.app ()))

let test_corpus () =
  let nested_cyclic =
    List.filter
      (fun (spec : Corpus.Spec.t) ->
        let r, _ = check_app spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec) in
        nested_cyclic_children r)
      Corpus.Apps.specs
  in
  Alcotest.(check bool) "some app's child relation nests and cycles" true (nested_cyclic <> [])

let test_qcheck_random =
  QCheck.Test.make ~count:8 ~name:"random app: reads equal rows"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Util.Prng.create seed in
      let spec = Corpus.Gen.random_spec ~name:(Printf.sprintf "QQuery_%d" seed) rng in
      ignore (check_app spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec));
      true)

(* A reflective app (sound mode): [SetId (v, ⊤)] carriers match every
   id name, the undeclared "no_such_id_zzz" included, in the daemon's
   reads and the batch projection alike. *)
let test_reflective () =
  let r, _ = check_app "ReflHeavy" (Corpus.Gen.reflective_app ~layouts:3 ~seed:42 ()) in
  Alcotest.(check bool) "some view carries the ⊤ sentinel" true
    (Analysis.views_with_id r "no_such_id_zzz" <> [])

(* Cycle-heavy apps: components with many members read one
   representative's row, and cast edges can still close cycles in the
   condensed graph. *)
let test_cyclic () =
  let app =
    Corpus.Gen.cyclic_app ~name:"QCycle" ~chains:3 ~chain_len:9 ~two_cycles:2 ~bridges:4 ~seed:23
      ()
  in
  ignore (check_app "QCycle" app)

let test_qcheck_cyclic =
  QCheck.Test.make ~count:8 ~name:"random cyclic: reads equal rows"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Util.Prng.create seed in
      let app = Corpus.Gen.random_cyclic_app ~name:(Printf.sprintf "QCyc_%d" seed) rng in
      ignore (check_app (Printf.sprintf "QCyc_%d" seed) app);
      true)

(* Incrementally patched apps: the query engine must be exact over a
   WARM-captured state (whose rows alias the previous solve's),
   checked against a cold from-scratch forward solve of the patched
   app. *)
let test_patched () =
  let base = Corpus.Gen.generate (Option.get (Corpus.Apps.by_name "XBMC")) in
  let _, solved0 = Incremental.analyze_solved base in
  let patches =
    [
      ( "XBMC+stmt",
        [
          Corpus.Patch.Add_stmt
            {
              cls = "Activity_0";
              meth = "onCreate";
              arity = 0;
              stmt = Jir.Ast.New ("q_tmp", "android.widget.Button");
            };
        ] );
      ("XBMC+rename", [ Corpus.Patch.Rename_view_id { from_ = "view_0_0"; to_ = "view_0_1" } ]);
    ]
  in
  ignore
    (List.fold_left
       (fun prev (name, patch) ->
         let patched =
           match Corpus.Patch.apply base patch with
           | Ok app -> app
           | Error e -> Alcotest.failf "%s: patch failed: %s" name e
         in
         let warm_r, warm_solved = Incremental.analyze_incremental ~prev patched in
         Alcotest.(check bool) (name ^ " solved warm") true warm_r.Analysis.stats.Solve.warm_solve;
         (* forward reference: a cold solve of the same patched app *)
         let cold = Analysis.analyze patched in
         check_queries name cold warm_solved;
         warm_solved)
       solved0 patches)

(* Under the worker pool: apps built and queried inside their tasks,
   answers independent of domain scheduling. *)
let test_jobs () =
  let seeds = [ 11; 12; 13; 14 ] in
  List.iter
    (fun jobs ->
      let tasks =
        List.map
          (fun seed () ->
            let rng = Util.Prng.create seed in
            let name = Printf.sprintf "QJobs_%d" seed in
            let spec = Corpus.Gen.random_spec ~name rng in
            ignore (check_app name (Corpus.Gen.generate spec)))
          seeds
      in
      List.iter Pool.value_exn (Pool.run ~jobs tasks))
    [ 1; 4 ]

(* [q_queries] counts answered point queries; the walk counters the
   benchmark still reads stay 0. *)
let walk_counters (s : Query.stats) =
  [ s.Query.q_memo_hits; s.Query.q_expanded; s.Query.q_generator_hits; s.Query.q_budget_fallbacks ]

let test_stats_counters () =
  let app = Corpus.Gen.generate (Option.get (Corpus.Apps.by_name "XBMC")) in
  let r, solved = Incremental.analyze_solved app in
  let q = Query.create ~hierarchy:app.Framework.App.hierarchy solved in
  let locations = Graph.locations r.Analysis.graph in
  List.iter (fun node -> ignore (Query.points_to q node)) locations;
  let s = Query.stats q in
  Alcotest.(check int) "one count per query" (List.length locations) s.Query.q_queries;
  Alcotest.(check (list int)) "walk counters stay 0" [ 0; 0; 0; 0 ] (walk_counters s);
  (* unknown nodes answer None without minting interner ids or counting *)
  let before = Intern.node_count (Query.interner q) in
  Alcotest.(check bool) "unknown node is None" true
    (Query.points_to q (Node.N_field "no_such_field_zzz") = None);
  Alcotest.(check int) "unknown node minted nothing" before (Intern.node_count (Query.interner q));
  Alcotest.(check int) "unknown node not counted" (List.length locations) s.Query.q_queries

(* Counter semantics on a SHARED engine: monotone accumulation since
   [create], never reset between queries, whatever the budget (the
   daemon relies on exactly this: its stats reply carries the count
   across queries, and across patches; see [test_server.ml]). *)
let test_stats_accumulate_on_shared_engine () =
  let app = Corpus.Gen.generate (Option.get (Corpus.Apps.by_name "XBMC")) in
  let r, solved = Incremental.analyze_solved app in
  let q = Query.create ~hierarchy:app.Framework.App.hierarchy solved in
  let locations = Graph.locations r.Analysis.graph in
  List.iter (fun node -> ignore (Query.points_to ~budget:0 q node)) locations;
  Alcotest.(check int) "round 1 queries" (List.length locations) (Query.stats q).Query.q_queries;
  List.iter (fun node -> ignore (Query.points_to q node)) locations;
  let s = Query.stats q in
  Alcotest.(check int) "queries accumulate" (2 * List.length locations) s.Query.q_queries;
  Alcotest.(check (list int)) "walk counters stay 0" [ 0; 0; 0; 0 ] (walk_counters s)

(* Relation queries on keys the app never interned: empty answers, and
   no interner table grows. *)
let test_unknown_keys_mint_nothing () =
  let app = Corpus.Gen.generate (Option.get (Corpus.Apps.by_name "ConnectBot")) in
  let _, solved = Incremental.analyze_solved app in
  let q = Query.create ~hierarchy:app.Framework.App.hierarchy solved in
  let it = Query.interner q in
  let counts () =
    [
      Intern.node_count it;
      Intern.value_count it;
      Intern.view_count it;
      Intern.listener_count it;
      Intern.holder_count it;
    ]
  in
  let before = counts () in
  Alcotest.(check (list reject))
    "unknown listener answers empty" []
    (Query.views_of_listener q (Node.L_act "NoSuchListener_zzz"));
  Alcotest.(check (list string)) "unknown id answers empty" []
    (Query.activities_of_id q "no_such_id_zzz");
  Alcotest.(check (list int)) "node, value, view, listener, holder counts" before (counts ())

(* The holder closure ([Graph.holder_views], read through
   [Analysis.views_of_holder]) against a per-root reference: a BFS
   over the decoded child relation from each root, unioned. *)
let check_holder_closure name (r : Analysis.t) =
  let reference holder =
    let seen = Hashtbl.create 16 in
    let rec visit v =
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.replace seen v ();
        List.iter visit (Reader.children r.Analysis.graph v)
      end
    in
    List.iter visit (Reader.roots r.Analysis.graph holder);
    List.sort Node.compare_view (Hashtbl.fold (fun v () acc -> v :: acc) seen [])
  in
  List.iter
    (fun holder ->
      let expected = reference holder and got = Analysis.views_of_holder r holder in
      if List.compare Node.compare_view expected got <> 0 then
        Alcotest.failf "%s: holder closure differs at %a:@.  per-root %a@.  closure  %a" name
          Node.pp_holder holder pp_views expected pp_views got)
    (Graph.holders r.Analysis.graph)

let test_holder_closure_corpus () =
  List.iter
    (fun (spec : Corpus.Spec.t) ->
      check_holder_closure spec.Corpus.Spec.sp_name
        (Analysis.analyze (Corpus.Gen.generate spec)))
    Corpus.Apps.specs

let test_qcheck_holder_closure =
  QCheck.Test.make ~count:8 ~name:"holder closure, random cyclic apps"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let name = Printf.sprintf "QHold_%d" seed in
      let app = Corpus.Gen.random_cyclic_app ~name (Util.Prng.create seed) in
      check_holder_closure name (Analysis.analyze app);
      true)

let suite =
  [
    Alcotest.test_case "ConnectBot: reads equal rows" `Quick test_connectbot;
    Alcotest.test_case "cyclic app: reads equal rows" `Quick test_cyclic;
    Alcotest.test_case "reflective app: reads equal rows, ⊤ ids included" `Quick test_reflective;
    Alcotest.test_case "patched apps: warm state queries = cold forward" `Quick test_patched;
    Alcotest.test_case "query stats counters" `Quick test_stats_counters;
    Alcotest.test_case "stats accumulate on a shared engine" `Quick
      test_stats_accumulate_on_shared_engine;
    Alcotest.test_case "unknown keys mint nothing" `Quick test_unknown_keys_mint_nothing;
    QCheck_alcotest.to_alcotest test_qcheck_random;
    QCheck_alcotest.to_alcotest test_qcheck_cyclic;
    QCheck_alcotest.to_alcotest test_qcheck_holder_closure;
    Alcotest.test_case "corpus: reads equal rows (all apps)" `Slow test_corpus;
    Alcotest.test_case "holder closure, corpus apps" `Slow test_holder_closure_corpus;
    Alcotest.test_case "random apps under pool (jobs 1/4)" `Slow test_jobs;
  ]
