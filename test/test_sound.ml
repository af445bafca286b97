(* Sound mode: unknown-id / unknown-class markers (⊤).

   The reflective family routes its content layout, a find-view id and
   a set-id id through unresolvable [R.layout.?] / [R.id.?] lookups.
   The battery checks the whole contract:
   - both engines agree bit-for-bit, including the imprecision
     taint tables each derives from the table's taint stratum, one
     more round of the table adds nothing to either, and every taint
     entry is pinned on one small app;
   - the static solution covers EVERY concrete resolution of the
     reflective lookups (dynamic-oracle sweep over candidate layouts
     and view ids) — the soundness anchor;
   - taint is a strict, meaningful subset: the ⊤ activity's sets are
     polluted, the concrete activity's are not, and taint ⊆ solution
     everywhere;
   - concrete queries still see the [SetId (v, ⊤)] sentinel carrier,
     through [Analysis] and through [Query];
   - solved state round-trips through the snapshot codec with taints,
     and warm starts refuse ⊤ state with a pinned reason. *)
open Gator

(* The rule-table reference and the interned engine, by name. *)
let engines =
  [ ("reference", fun app -> Analysis.reference app); ("interned", fun app -> Analysis.analyze app) ]

let refl_app ?(layouts = 3) ?(seed = 42) () = Corpus.Gen.reflective_app ~layouts ~seed ()

let sorted_taints r =
  List.sort
    (fun (n1, _) (n2, _) -> Node.compare n1 n2)
    (Reader.tainted_nodes r.Analysis.graph)

let test_engines_agree () =
  let app = refl_app () in
  let reference = Analysis.reference app in
  Alcotest.(check bool) "⊤ markers detected" true (Graph.has_top reference.Analysis.graph);
  List.iter
    (fun (engine, analyze) ->
      Same_solution.check (Printf.sprintf "reflective[reference vs %s]" engine) reference (analyze app))
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
      List.iter
        (fun v ->
          if not (List.mem v (Reader.points_to r.Analysis.graph node)) then
            Alcotest.failf "taint outside solution at %a: %a" Node.pp node Node.pp_value v)
        vs)
    (Reader.tainted_nodes r.Analysis.graph);
  (* the concrete activity's find result is exact: untainted *)
  let x = Analysis.var ~cls:"Refl_Concrete" ~meth:"onCreate" ~arity:0 "x" in
  Alcotest.(check bool) "concrete activity untainted" true
    (Reader.taints r.Analysis.graph x = []);
  (* the reflective find-by-⊤ result is polluted *)
  let v = Analysis.var ~cls:"Refl_Activity" ~meth:"onCreate" ~arity:0 "v" in
  Alcotest.(check bool) "⊤ find result tainted" false
    (Reader.taints r.Analysis.graph v = [])

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
  (* the daemon's activities-of-id agrees with the forward projection,
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
      let taints g = List.length (Reader.tainted_nodes g) in
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

(* Taint rows name structural nodes and values; the loader takes only
   those in the captured pools, and answers anything else with an
   [Error], never an exception. *)
let test_snapshot_taint_rows_checked () =
  let _, solved = Incremental.analyze_solved (refl_app ()) in
  let doc = Snapshot.to_json solved in
  let with_taints rows =
    match doc with
    | Util.Json.Obj fields ->
        Util.Json.Obj (List.map (fun (k, v) -> if k = "taints" then (k, rows) else (k, v)) fields)
    | _ -> Alcotest.fail "snapshot is not an object"
  in
  let first_row =
    match Util.Json.member "taints" doc with
    | Some (Util.Json.List (Util.Json.List [ n; vs ] :: _)) -> (n, vs)
    | _ -> Alcotest.fail "⊤ snapshot has no taint rows"
  in
  let unknown_node = Util.Json.List [ Util.Json.String "field"; Util.Json.String "no.such.field" ] in
  let unknown_value = Util.Json.List [ Util.Json.String "act"; Util.Json.String "NoSuchActivity" ] in
  List.iter
    (fun (what, rows) ->
      match Snapshot.of_json (with_taints rows) with
      | Ok _ -> Alcotest.failf "%s: loaded" what
      | Error _ -> ()
      | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e))
    [
      ("node outside the pool", Util.Json.List [ Util.Json.List [ unknown_node; snd first_row ] ]);
      ( "value outside the pool",
        Util.Json.List [ Util.Json.List [ fst first_row; Util.Json.List [ unknown_value ] ] ] );
      ("malformed row", Util.Json.List [ Util.Json.Int 3 ]);
    ];
  match Snapshot.of_json (with_taints (Util.Json.List [])) with
  | Ok loaded ->
      Alcotest.(check int) "no taint rows, nothing tainted" 0
        (List.length (Reader.tainted_nodes loaded.Solve.sd_graph))
  | Error e -> Alcotest.failf "empty taint rows refused: %s" e

(* The taint plane, differentially: the rule-table reference derives
   taint from the table's taint entries on its own, so reference = interned
   ([Same_solution.check] compares the rows node by node) checks the
   staged stratum; and one more round of the table, taint entries
   included, adds nothing to the interned rows. *)
let qcheck_random_reflective =
  QCheck.Test.make ~name:"random reflective apps: engines agree and stay sound" ~count:15
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Util.Prng.create seed in
      let app = Corpus.Gen.random_reflective_app rng in
      let reference = Analysis.reference app in
      List.iter
        (fun (engine, analyze) ->
          let candidate = analyze app in
          Same_solution.check (Printf.sprintf "random reflective engines, seed %d" seed) reference candidate;
          match Rules.step Config.default app candidate.Analysis.graph with
          | [], _ -> ()
          | added, _ ->
              QCheck.Test.fail_reportf "seed %d, %s: one more round adds@.%a" seed engine
                Fmt.(list ~sep:cut string)
                added)
        engines;
      let c = Dynamic.Oracle.check reference (Dynamic.Interp.run app) in
      if not (Dynamic.Oracle.is_sound c) then
        QCheck.Test.fail_reportf "seed %d unsound: %s" seed
          (Fmt.str "%a" Dynamic.Oracle.pp_coverage c);
      true)

(* Every taint entry at work, each the only source of some row's
   value, so a lost entry shows in {!test_taint_entries_pinned}: a ⊤
   find, finds under its tainted result, and a pass-through over a
   tainted parent; the lift, the sentinel and a ⊤ find under an
   untainted container; flow into a copy cycle and into a find's
   receiver.  ReflHeavy reaches only some of them. *)
let taint_ops_app () =
  match
    Framework.App.of_source ~name:"T"
      ~layouts:[ ("main", {|<LinearLayout android:id="@+id/r"><Button android:id="@+id/b" /></LinearLayout>|}) ]
      ~code:
        {|class A extends Activity {
            method onCreate(): void {
              l = R.layout.?;
              this.setContentView(l);
              q = R.id.?;
              v = this.findViewById(q);
              k = R.id.b;
              w = v.findViewById(k);
              f = v.findFocus();
              p = w.getParent();
              t = p.beginTransaction();
              c = new FrameLayout();
              c.addView(f);
              g = c.getCurrentView();
              s = new Button();
              z = R.id.?;
              s.setId(z);
              c.addView(s);
              h = c.findViewById(k);
              x = new TextView();
              kx = R.id.x;
              x.setId(kx);
              v.addView(x);
              y = v.findViewById(kx);
              u = new TextView();
              u.setId(kx);
              c.addView(u);
              m = c.findViewById(q);
              n = y;
              o = n;
              n = o;
              e = v;
              j = e.findViewById(kx);
            } }|}
  with
  | Ok app -> app
  | Error e -> Alcotest.failf "taint ops app: %s" e

(* Its taint rows under both engines.  [b] and [r] are the ⊤
   inflation's views, so the lift taints them wherever they are, and
   [g] has nothing else; the other rows each hold a value one entry
   alone taints: [l], [q] and [z] the markers, [v]'s [x] FindView(⊤),
   [y]'s [x] a find under a tainted view, [f]'s [x] FindOne and [p]'s
   [c] getParent under one, [t]'s [c] PassThrough, [h]'s [s] the
   sentinel, [m]'s [u] a ⊤ find under the untainted [c], [n]'s and
   [o]'s [x] flow from [y] into their copy cycle, and [j]'s [x] a find
   under [e], whose taint arrives by flow after that find first ran. *)
let test_taint_entries_pinned () =
  let b = "Button@main[0]#A.onCreate/0@1(id=b)" and r = "LinearLayout@main[]#A.onCreate/0@1(id=r)" in
  let c = "FrameLayout@A.onCreate/0@9" and s = "Button@A.onCreate/0@12" in
  let x = "TextView@A.onCreate/0@17" and u = "TextView@A.onCreate/0@22" in
  let row node values = Printf.sprintf "A.onCreate/0:%s -> %s" node (String.concat " " values) in
  let expected =
    [
      row "e" [ r; b; x ];
      row "f" [ b; x ];
      row "g" [ b ];
      row "h" [ b; s ];
      row "j" [ x ];
      row "l" [ "layout:top" ];
      row "m" [ b; s; x; u ];
      row "n" [ x ];
      row "o" [ x ];
      row "p" [ r; c ];
      row "q" [ "id:top" ];
      row "t" [ r; c ];
      row "v" [ r; b; x ];
      row "w" [ b ];
      row "y" [ x ];
      row "z" [ "id:top" ];
    ]
  in
  List.iter
    (fun (engine, analyze) ->
      let r = analyze (taint_ops_app ()) in
      Alcotest.(check (list string))
        engine expected
        (List.map
           (fun (n, vs) -> Fmt.str "%a -> %a" Node.pp n Fmt.(list ~sep:(any " ") Node.pp_value) vs)
           (sorted_taints r)))
    engines

let suite =
  [
    Alcotest.test_case "naive and interned agree on ⊤ apps (with taints)" `Quick
      test_engines_agree;
    Alcotest.test_case "sound mode covers every candidate resolution" `Quick test_oracle_superset;
    Alcotest.test_case "taint is a meaningful strict subset" `Quick test_taint_meaningful;
    Alcotest.test_case "every taint entry, pinned" `Quick test_taint_entries_pinned;
    Alcotest.test_case "concrete queries see the ⊤ sentinel" `Quick test_sentinel_concrete_queries;
    Alcotest.test_case "snapshot round-trip + warm refusal" `Quick
      test_snapshot_roundtrip_and_warm_refusal;
    Alcotest.test_case "snapshot taint rows are range-checked" `Quick
      test_snapshot_taint_rows_checked;
    QCheck_alcotest.to_alcotest qcheck_random_reflective;
  ]
