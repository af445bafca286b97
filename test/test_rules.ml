(* The rule table as a checker of solutions.

   - Fixpoint certificate: one more round of the table over the
     interned engine's final rows adds nothing, and every taint row
     lies inside its points-to row.  A differential only says that two
     engines agree; this certifies one result on its own.  The round
     propagates over the whole frozen flow graph, so the context clones
     of keyed cs-2 solves are covered too.
   - Coverage: every entry and named clause of the table fires on the
     test inputs, so a dead or mis-keyed entry is caught. *)
open Gator

let keyed depth = { Config.default with Config.inline_depth = depth }

(* Certify the interned solution of [app] under [config]; returns the
   round's firing counts. *)
let certify ?(config = Config.default) name app =
  let r = Analysis.analyze ~config app in
  let added, fired = Rules.step config app r.graph in
  if added <> [] then
    Alcotest.failf "%s: one more round adds %d facts, e.g.@.%a" name (List.length added)
      Fmt.(list ~sep:cut string)
      (List.filteri (fun i _ -> i < 8) added);
  List.iter
    (fun (node, taints) ->
      let set = Reader.points_to r.graph node in
      if not (List.for_all (fun v -> List.mem v set) taints) then
        Alcotest.failf "%s: taint outside the points-to set at %a" name Node.pp node)
    (Reader.tainted_nodes r.graph);
  fired

(* Certified once, read by the certificate and the coverage tests. *)
let corpus_fired =
  lazy
    (List.map
       (fun spec -> certify spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec))
       Corpus.Apps.specs)

let app_of ?(layouts = []) code =
  match Framework.App.of_source ~name:"T" ~code ~layouts with
  | Ok app -> app
  | Error e -> Alcotest.failf "app: %s" e

(* The small apps of [Test_solve] that exercise the extensions. *)
let feature_apps () =
  let open Test_solve in
  [
    ("menu", app_of menu_code);
    ("adapter", app_of ~layouts:adapter_layouts adapter_code);
    ("fragment", app_of ~layouts:fragment_layouts fragment_code);
    ("declared fragment", app_of ~layouts:declared_fragment_layouts declared_fragment_code);
    ("declarative onClick", app_of ~layouts:declarative_layouts declarative_code);
    ("dialog", app_of dialog_code);
  ]

let test_corpus () = ignore (Lazy.force corpus_fired)

let test_figure1 () = ignore (certify "ConnectBot" (Corpus.Connectbot.app ()))

let test_keyed () =
  ignore
    (certify ~config:(keyed 2) "CycleHeavy@cs2"
       (Corpus.Gen.cyclic_app ~name:"CycleHeavy" ~chains:4 ~chain_len:24 ~two_cycles:6 ~bridges:8
          ~seed:2014 ()));
  ignore
    (certify ~config:(keyed 2) "AliasHeavy@cs2"
       (Corpus.Gen.alias_heavy_app ~name:"AliasHeavy" ~groups:4 ~sites_per_group:5 ~seed:11 ()))

let test_sound () =
  let app = Corpus.Gen.reflective_app ~layouts:3 ~seed:42 () in
  Alcotest.(check bool) "⊤ markers" true (Graph.has_top (Analysis.analyze app).graph);
  ignore (certify "ReflHeavy" app)

let test_qcheck =
  QCheck.Test.make ~count:8 ~name:"random apps certify" QCheck.(int_range 0 10_000) (fun seed ->
      let rng = Util.Prng.create seed in
      let app =
        match seed mod 3 with
        | 0 -> Corpus.Gen.generate (Corpus.Gen.random_spec ~name:(Printf.sprintf "QRules_%d" seed) rng)
        | 1 -> Corpus.Gen.random_cyclic_app rng
        | _ -> Corpus.Gen.random_reflective_app rng
      in
      ignore (certify (Printf.sprintf "random %d" seed) app);
      ignore (certify ~config:(keyed 2) (Printf.sprintf "random %d @cs2" seed) app);
      true)

(* A solution with facts missing fails the certificate: empty the
   points-to row of a FindView result and one round re-derives it. *)
let test_certificate_bites () =
  let app = Corpus.Connectbot.app () in
  let r = Analysis.analyze app in
  let sol = Graph.solution r.graph in
  let it = Graph.interner r.graph in
  let out =
    List.find_map
      (fun (op : Graph.op) ->
        match (op.site.o_kind, op.op_out) with
        | Framework.Api.Find_view, Some out when Reader.points_to r.graph out <> [] ->
            Intern.find_node it out
        | _ -> None)
      (Graph.ops r.graph)
  in
  let rep = sol.Graph.sol_rep.(Option.get out) in
  let sets = Array.copy sol.Graph.sol_sets in
  sets.(rep) <- None;
  Graph.set_solution r.graph { sol with Graph.sol_sets = sets };
  match Rules.step Config.default app r.graph with
  | [], _ -> Alcotest.fail "an emptied FindView result passes the certificate"
  | added, _ ->
      Alcotest.(check bool)
        "FindView re-derives it" true
        (List.exists (fun fact -> String.starts_with ~prefix:"FindView" fact) added)

(* The same for a relation row: empty the child row of an inflated
   view and one round re-derives it from the inflation memo. *)
let test_certificate_child_row () =
  let app = Corpus.Connectbot.app () in
  let r = Analysis.analyze app in
  let sol = Graph.solution r.graph in
  let it = Graph.interner r.graph in
  let wid =
    List.find_map
      (fun view ->
        if Reader.children r.graph view = [] then None else Intern.find_view it view)
      (Graph.inflated_views r.graph)
  in
  let children = Array.copy sol.Graph.sol_children in
  children.(Option.get wid) <- None;
  Graph.set_solution r.graph { sol with Graph.sol_children = children };
  match Rules.step Config.default app r.graph with
  | [], _ -> Alcotest.fail "an emptied child row passes the certificate"
  | added, _ ->
      Alcotest.(check bool)
        "inflation re-derives it" true
        (List.exists (fun fact -> String.starts_with ~prefix:"Inflate" fact) added)

(* The same for taint: clear any one tainted node's row of ReflHeavy
   and one round of the taint entries re-derives it. *)
let test_certificate_taint_row () =
  let app = Corpus.Gen.reflective_app ~layouts:3 ~seed:42 () in
  let r = Analysis.analyze app in
  let sol = Graph.solution r.graph and it = Graph.interner r.graph in
  let tainted = Reader.tainted_nodes r.graph in
  if tainted = [] then Alcotest.fail "ReflHeavy has no taint rows";
  (* a fact reads "<entry>: <node> tainted with <values>" *)
  let about node fact =
    String.starts_with ~prefix:"Taint" fact
    &&
    match String.index_opt fact ':' with
    | Some i ->
        let rest = String.sub fact (i + 1) (String.length fact - i - 1) in
        String.starts_with ~prefix:(Fmt.str " %a tainted with" Node.pp node) rest
    | None -> false
  in
  List.iter
    (fun (node, _) ->
      let taints = Array.copy sol.Graph.sol_taints in
      taints.(Option.get (Intern.find_node it node)) <- None;
      Graph.set_solution r.graph { sol with Graph.sol_taints = taints };
      let added, _ = Rules.step Config.default app r.graph in
      if not (List.exists (about node) added) then
        Alcotest.failf "a cleared taint row at %a passes the certificate" Node.pp node)
    tainted

(* Inflation, FindOne (refined and not), getParent and startActivity
   in one app: the corpus does not reach them all. *)
let ops_app () =
  app_of
    ~layouts:[ ("main", {|<LinearLayout><Button android:id="@+id/b" /></LinearLayout>|}) ]
    {|class A extends Activity {
        method onCreate(): void {
          c = new FrameLayout();
          inf = this.getLayoutInflater();
          l = R.layout.main;
          k = inf.inflate(l, c);
          f = c.findFocus();
          a = new ViewFlipper();
          a.addView(c);
          g = a.getCurrentView();
          p = c.getParent();
          t = new B();
          this.startActivity(t);
        } }
      class B extends Activity { method onCreate(): void { } }|}

(* Every entry fires somewhere: certificate rounds over the corpus, the
   extension apps, ReflHeavy, the ops app (also at the baseline
   configuration, for the unrefined FindOne entry) and the taint ops
   app. *)
let test_coverage () =
  let rounds =
    Lazy.force corpus_fired
    @ List.map (fun (name, app) -> certify name app) (feature_apps ())
    @ [
        certify "ReflHeavy" (Corpus.Gen.reflective_app ~layouts:3 ~seed:42 ());
        certify "ops" (ops_app ());
        certify ~config:Config.baseline "ops, baseline" (ops_app ());
        certify "taint ops" (Test_sound.taint_ops_app ());
      ]
  in
  let fires name = List.exists (fun fired -> List.assoc name fired > 0) rounds in
  match List.filter (fun name -> not (fires name)) Rules.names with
  | [] -> ()
  | dead -> Alcotest.failf "entries that never fire: %s" (String.concat ", " dead)

(* Every kind's footprint, as the schedule and the warm path read it
   off the table: an entry that changes what a kind reads, writes,
   registers or resolves shows here. *)
let test_footprints () =
  let open Framework.Api in
  let expected : kind -> Rules.rel list * Rules.rel list * bool * bool = function
    | Inflate -> ([], [ Child; Id ], false, false)
    | Set_content -> ([], [ Child; Id; Root ], false, false)
    | Add_view -> ([], [ Child ], false, false)
    | Set_id -> ([], [ Id ], false, false)
    | Set_listener _ -> ([ Child ], [], true, true)
    | Find_view -> ([ Child; Id; Root ], [], false, false)
    | Find_one _ | Get_parent -> ([ Child ], [], false, false)
    | Start_activity | Pass_through -> ([], [], false, false)
    | Fragment_add -> ([ Child; Id; Root ], [ Child ], false, true)
    | Menu_add -> ([], [ Child; Id ], false, true)
    | Set_adapter -> ([], [ Child ], false, true)
  in
  let show (reads, writes, listens, resolves) =
    let rels l = String.concat "," (List.map (function Rules.Child -> "child" | Id -> "id" | Root -> "root") l) in
    Printf.sprintf "reads %s; writes %s; listens %b; resolves %b" (rels reads) (rels writes) listens resolves
  in
  List.iter
    (fun k ->
      let f = Rules.footprint k in
      Alcotest.(check string)
        (Fmt.str "%a" pp_kind k) (show (expected k)) (show (f.reads, f.writes, f.listens, f.resolves)))
    kinds

let suite =
  [
    Alcotest.test_case "certificate: corpus (20 apps)" `Quick test_corpus;
    Alcotest.test_case "certificate: Figure 1" `Quick test_figure1;
    Alcotest.test_case "certificate: cycle- and alias-heavy at cs-2" `Quick test_keyed;
    Alcotest.test_case "certificate: ReflHeavy in sound mode" `Quick test_sound;
    QCheck_alcotest.to_alcotest test_qcheck;
    Alcotest.test_case "certificate rejects a missing fact" `Quick test_certificate_bites;
    Alcotest.test_case "certificate rejects a missing child row" `Quick test_certificate_child_row;
    Alcotest.test_case "certificate rejects a missing taint row" `Quick test_certificate_taint_row;
    Alcotest.test_case "every entry fires" `Quick test_coverage;
    Alcotest.test_case "footprints read off the table" `Quick test_footprints;
  ]
