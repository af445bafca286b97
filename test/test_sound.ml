(* Sound mode: unknown-id / unknown-class markers (⊤).

   The reflective family routes its content layout, a find-view id and
   a set-id id through unresolvable [R.layout.?] / [R.id.?] lookups.
   The battery checks the whole contract:
   - both engines agree bit-for-bit, including the imprecision
     taint tables the shared post-pass installs;
   - the static solution covers EVERY concrete resolution of the
     reflective lookups (dynamic-oracle sweep over candidate layouts
     and view ids) — the soundness anchor;
   - taint is a strict, meaningful subset: the ⊤ activity's sets are
     polluted, the concrete activity's are not, and taint ⊆ solution
     everywhere;
   - concrete queries still see the [SetId (v, ⊤)] sentinel carrier,
     forward and backward;
   - solved state round-trips through the snapshot codec with taints,
     and warm starts refuse ⊤ state with a pinned reason. *)
open Gator

let engines = [ Config.Naive; Config.Interned ]

let with_solver solver = { Config.default with Config.solver }

let refl_app ?(layouts = 3) ?(seed = 42) () = Corpus.Gen.reflective_app ~layouts ~seed ()

let sorted_taints r =
  List.sort
    (fun (n1, _) (n2, _) -> Node.compare n1 n2)
    (List.map (fun (n, vs) -> (n, Graph.VS.elements vs)) (Graph.tainted_nodes r.Analysis.graph))

let check_taints_equal name a b =
  let ta = sorted_taints a and tb = sorted_taints b in
  if
    List.compare
      (fun (n1, vs1) (n2, vs2) ->
        match Node.compare n1 n2 with
        | 0 -> List.compare Node.compare_value vs1 vs2
        | c -> c)
      ta tb
    <> 0
  then
    Alcotest.failf "%s: taint tables differ:@.  a: %a@.  b: %a" name
      Fmt.(Dump.list (pair Node.pp (Dump.list Node.pp_value)))
      ta
      Fmt.(Dump.list (pair Node.pp (Dump.list Node.pp_value)))
      tb

let test_engines_agree () =
  let app = refl_app () in
  let reference = Analysis.analyze ~config:(with_solver Config.Naive) app in
  Alcotest.(check bool) "⊤ markers detected" true (Graph.has_top reference.Analysis.graph);
  List.iter
    (fun solver ->
      let candidate = Analysis.analyze ~config:(with_solver solver) app in
      Same_solution.check
        (Printf.sprintf "reflective[naive vs %s]" (Config.solver_name solver))
        reference candidate;
      check_taints_equal
        (Printf.sprintf "reflective taints[naive vs %s]" (Config.solver_name solver))
        reference candidate)
    engines

(* Soundness anchor: sweep every candidate resolution of the ⊤
   lookups, replay the dynamic semantics, require full coverage. *)
let oracle_sweep name app (r : Analysis.t) ~layout_cands ~view_cands =
  List.iter
    (fun top_layout ->
      List.iter
        (fun top_view ->
          let options = { Dynamic.Interp.default_options with top_layout; top_view } in
          let c = Dynamic.Oracle.check r (Dynamic.Interp.run ~options app) in
          if not (Dynamic.Oracle.is_sound c) then
            Alcotest.failf "%s unsound at layout=%s view=%s: %a" name
              (Option.value ~default:"-" top_layout)
              (Option.value ~default:"-" top_view)
              Dynamic.Oracle.pp_coverage c)
        view_cands)
    layout_cands

let refl_layout_cands layouts =
  None :: List.init layouts (fun i -> Some (Printf.sprintf "Refl_lyt%d" i))

let refl_view_cands layouts =
  None
  :: List.concat
       (List.init layouts (fun i ->
            [ Some (Printf.sprintf "vid_root%d" i); Some (Printf.sprintf "vid_btn%d" i) ]))

let test_oracle_superset () =
  let layouts = 3 in
  let app = refl_app ~layouts () in
  let r = Analysis.analyze app in
  oracle_sweep "reflective" app r ~layout_cands:(refl_layout_cands layouts)
    ~view_cands:(refl_view_cands layouts)

let test_taint_meaningful () =
  let app = refl_app () in
  let r = Analysis.analyze app in
  let polluted, nonempty = Analysis.pollution r in
  Alcotest.(check bool) "some sets polluted" true (polluted > 0);
  Alcotest.(check bool) "not all sets polluted" true (polluted < nonempty);
  (* taint ⊆ solution at every node *)
  List.iter
    (fun (node, vs) ->
      Graph.VS.iter
        (fun v ->
          if not (Graph.VS.mem v (Graph.set_of r.Analysis.graph node)) then
            Alcotest.failf "taint outside solution at %a: %a" Node.pp node Node.pp_value v)
        vs)
    (Graph.tainted_nodes r.Analysis.graph);
  (* the concrete activity's find result is exact: untainted *)
  let x = Analysis.var ~cls:"Refl_Concrete" ~meth:"onCreate" ~arity:0 "x" in
  Alcotest.(check bool) "concrete activity untainted" true
    (Graph.VS.is_empty (Graph.taints_of r.Analysis.graph x));
  (* the reflective find-by-⊤ result is polluted *)
  let v = Analysis.var ~cls:"Refl_Activity" ~meth:"onCreate" ~arity:0 "v" in
  Alcotest.(check bool) "⊤ find result tainted" false
    (Graph.VS.is_empty (Graph.taints_of r.Analysis.graph v))

let test_sentinel_concrete_queries () =
  let app = refl_app () in
  let r, solved = Incremental.analyze_solved app in
  (* the SetId(w, ⊤) carrier answers every concrete id name *)
  let carrier =
    List.exists
      (fun view -> match view with Node.V_alloc _ -> true | _ -> false)
      (Analysis.views_with_id r "vid_btn1")
  in
  Alcotest.(check bool) "sentinel carrier in views_with_id" true carrier;
  (* backward activities-of-id agrees with the forward projection,
     sentinel included *)
  let q = Query.create ~hierarchy:app.Framework.App.hierarchy solved in
  List.iter
    (fun i ->
      let name = Printf.sprintf "vid_btn%d" i in
      let acts = Query.activities_of_id q name in
      Alcotest.(check bool)
        (Printf.sprintf "⊤ activity displays %s" name)
        true
        (List.mem "Refl_Activity" acts))
    [ 0; 1; 2 ]

let test_snapshot_roundtrip_and_warm_refusal () =
  let app = refl_app () in
  let r, solved = Incremental.analyze_solved app in
  (match Snapshot.of_json (Snapshot.to_json solved) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok loaded ->
      Alcotest.(check bool) "has_top survives the codec" true
        (Graph.has_top (loaded.Solve.sd_graph));
      let taints g = List.length (Graph.tainted_nodes g) in
      Alcotest.(check int) "taint rows survive the codec"
        (taints r.Analysis.graph)
        (taints (loaded.Solve.sd_graph));
      (* ⊤ state refuses warm starts with a pinned reason... *)
      let warm, _ = Incremental.analyze_incremental ~prev:loaded app in
      Alcotest.(check bool) "warm start fell back" false warm.Analysis.stats.Solve.warm_solve;
      Alcotest.(check (option string))
        "refusal reason pinned"
        (Some "unknown-id markers present: sound mode is not warm-startable")
        warm.Analysis.stats.Solve.fallback;
      (* ...and the CLI warning renders the reason verbatim *)
      Alcotest.(check (option string))
        "stderr warning pinned"
        (Some
           "incremental: warm start refused (unknown-id markers present: sound mode is not \
            warm-startable); ran a full solve")
        (Incremental.refusal_warning warm);
      (* the fallback still solved correctly *)
      Same_solution.check "⊤ fallback solution" r warm)

let qcheck_random_reflective =
  QCheck.Test.make ~name:"random reflective apps: engines agree and stay sound" ~count:15
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Util.Prng.create seed in
      let app = Corpus.Gen.random_reflective_app rng in
      let reference = Analysis.analyze ~config:(with_solver Config.Naive) app in
      List.iter
        (fun solver ->
          let candidate = Analysis.analyze ~config:(with_solver solver) app in
          Same_solution.check "random reflective engines" reference candidate;
          check_taints_equal "random reflective taints" reference candidate)
        engines;
      let c = Dynamic.Oracle.check reference (Dynamic.Interp.run app) in
      if not (Dynamic.Oracle.is_sound c) then
        QCheck.Test.fail_reportf "seed %d unsound: %s" seed
          (Fmt.str "%a" Dynamic.Oracle.pp_coverage c);
      true)

let suite =
  [
    Alcotest.test_case "naive and interned agree on ⊤ apps (with taints)" `Quick
      test_engines_agree;
    Alcotest.test_case "sound mode covers every candidate resolution" `Quick test_oracle_superset;
    Alcotest.test_case "taint is a meaningful strict subset" `Quick test_taint_meaningful;
    Alcotest.test_case "concrete queries see the ⊤ sentinel" `Quick test_sentinel_concrete_queries;
    Alcotest.test_case "snapshot round-trip + warm refusal" `Quick
      test_snapshot_roundtrip_and_warm_refusal;
    QCheck_alcotest.to_alcotest qcheck_random_reflective;
  ]
