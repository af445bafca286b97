(* The frozen shared interner tier.  Two layers of evidence: unit
   tests pin the watermark arithmetic itself — frozen window ids,
   boundary symbols, decode round-trips, and the no-mint guarantee
   that nothing ever writes the frozen tier — and differential tests
   show the tier is invisible to the analysis: shared-tier and
   private-tier runs produce the same solution (down to byte-identical
   corpus tables) across engines, random apps, cycle-heavy apps, and
   worker pools. *)
open Gator

(* The rule-table reference and the interned engine, each on the
   shared tier and on a private interner. *)
let engines =
  [
    ("reference", (fun app -> Analysis.reference app), fun app -> Private_tier.reference app);
    ("interned", (fun app -> Analysis.analyze app), fun app -> Private_tier.analyze app);
  ]
let lbase = Layouts.Resource.layout_base
let vbase = Layouts.Resource.view_base

(* ------------------------------------------------------------------ *)
(* Watermark arithmetic on a small custom tier *)

(* A 4-layout / 6-view frozen window: ids 0..3 are layout ids, 4..9
   view ids, the two unknown-id markers take 10 and 11 (and the ⊤ rid
   sentinel takes rid 10), so the watermarks are 12/11 and the first
   private symbol of either kind mints at its watermark. *)
let test_watermark_boundary () =
  let sh = Intern.make_shared ~layout_ids:4 ~view_ids:6 in
  Alcotest.(check (pair int int)) "tier counts" (12, 11) (Intern.shared_counts sh);
  let it = Intern.create ~shared:sh () in
  Alcotest.(check (pair int int)) "watermarks" (12, 11) (Intern.watermarks it);
  Alcotest.check Alcotest.int "frozen tier pre-counts values" 12 (Intern.value_count it);
  Alcotest.check Alcotest.int "frozen tier pre-counts rids" 11 (Intern.rid_count it);
  (* frozen hits are pure arithmetic: base offset, no pool growth *)
  Alcotest.check Alcotest.int "first layout id" 0 (Intern.value it (Node.V_layout_id lbase));
  Alcotest.check Alcotest.int "last layout id" 3 (Intern.value it (Node.V_layout_id (lbase + 3)));
  Alcotest.check Alcotest.int "first view id" 4 (Intern.value it (Node.V_view_id vbase));
  (* the last view symbol of the frozen windows *)
  Alcotest.check Alcotest.int "last frozen view id" 9 (Intern.value it (Node.V_view_id (vbase + 5)));
  (* the ⊤ markers sit right after the windows — inside the frozen
     tier, so interning them never mints, and their fixed offsets can
     never collide with a window entry *)
  Alcotest.check Alcotest.int "layout ⊤ marker id" 10 (Intern.value it Node.V_layout_top);
  Alcotest.check Alcotest.int "view-id ⊤ marker id" 11 (Intern.value it Node.V_view_id_top);
  Alcotest.check Alcotest.int "no private values minted" 12 (Intern.value_count it);
  (* one past the window: the first private id is the watermark *)
  Alcotest.check Alcotest.int "first overflow id" 12 (Intern.value it (Node.V_view_id (vbase + 6)));
  Alcotest.check Alcotest.int "overflow minted one value" 13 (Intern.value_count it);
  (* a layout id outside the layout window is private too, even though
     it is numerically below the view window *)
  Alcotest.check Alcotest.int "layout id past its window is private" 13
    (Intern.value it (Node.V_layout_id (lbase + 4)));
  (* re-intern is stable across the boundary *)
  Alcotest.check Alcotest.int "frozen re-intern stable" 9
    (Intern.value it (Node.V_view_id (vbase + 5)));
  Alcotest.check Alcotest.int "overflow re-intern stable" 12
    (Intern.value it (Node.V_view_id (vbase + 6)));
  Alcotest.check Alcotest.int "marker re-intern stable" 10 (Intern.value it Node.V_layout_top);
  Alcotest.check Alcotest.int "still two private values" 14 (Intern.value_count it);
  (* decode round-trips both tiers *)
  for vid = 0 to Intern.value_count it - 1 do
    let v = Intern.value_of it vid in
    Alcotest.check Alcotest.int (Printf.sprintf "value %d round-trips" vid) vid
      (Intern.value it v)
  done;
  (* the rid pool follows the same windows, with the ⊤ sentinel raw id
     frozen right after them *)
  Alcotest.check Alcotest.int "frozen rid" 2 (Intern.rid it (lbase + 2));
  Alcotest.check Alcotest.int "last frozen rid" 9 (Intern.rid it (vbase + 5));
  Alcotest.check Alcotest.int "⊤ sentinel rid" 10 (Intern.rid it Node.top_view_id_raw);
  Alcotest.check Alcotest.int "no private rids minted" 11 (Intern.rid_count it);
  Alcotest.check Alcotest.int "overflow rid" 11 (Intern.rid it (vbase + 6));
  Alcotest.check Alcotest.int "one private rid" 12 (Intern.rid_count it);
  for rid = 0 to Intern.rid_count it - 1 do
    Alcotest.check Alcotest.int
      (Printf.sprintf "rid %d round-trips" rid)
      rid
      (Intern.rid it (Intern.rid_of it rid))
  done;
  (* degenerate windows: the markers survive even 0-sized windows
     (nothing to collide with, ids 0/1 and rid 0) *)
  let sh0 = Intern.make_shared ~layout_ids:0 ~view_ids:0 in
  Alcotest.(check (pair int int)) "empty-window tier counts" (2, 1) (Intern.shared_counts sh0);
  let it0 = Intern.create ~shared:sh0 () in
  Alcotest.check Alcotest.int "empty-window layout ⊤" 0 (Intern.value it0 Node.V_layout_top);
  Alcotest.check Alcotest.int "empty-window view-id ⊤" 1 (Intern.value it0 Node.V_view_id_top);
  Alcotest.check Alcotest.int "empty-window ⊤ rid" 0 (Intern.rid it0 Node.top_view_id_raw);
  Alcotest.check Alcotest.int "empty-window no value mints" 2 (Intern.value_count it0);
  Alcotest.check Alcotest.int "empty-window no rid mints" 1 (Intern.rid_count it0)

(* Non-minting lookups resolve frozen symbols on a fresh interner
   without growing anything. *)
let test_lookups_never_mint () =
  let sh = Intern.make_shared ~layout_ids:4 ~view_ids:6 in
  let it = Intern.create ~shared:sh () in
  Alcotest.(check (option int)) "find_value hits the tier" (Some 7)
    (Intern.find_value it (Node.V_view_id (vbase + 3)));
  Alcotest.(check (option int)) "rid_opt hits the tier" (Some 1) (Intern.rid_opt it (lbase + 1));
  Alcotest.(check (option int)) "find_value misses past the window" None
    (Intern.find_value it (Node.V_view_id (vbase + 6)));
  Alcotest.(check (option int)) "rid_opt misses past the window" None
    (Intern.rid_opt it (vbase + 6));
  Alcotest.(check (option int)) "find_value hits the ⊤ markers" (Some 10)
    (Intern.find_value it Node.V_layout_top);
  Alcotest.(check (option int)) "rid_opt hits the ⊤ sentinel" (Some 10)
    (Intern.rid_opt it Node.top_view_id_raw);
  Alcotest.check Alcotest.int "no values minted" 12 (Intern.value_count it);
  Alcotest.check Alcotest.int "no rids minted" 11 (Intern.rid_count it)

(* The id-stability argument: frozen ids are a pure function of the
   symbol, so every interner over the global tier — across graphs,
   across domains — agrees without coordination. *)
let test_global_tier_stable_ids () =
  let sh = Intern.shared_tier () in
  let values, rids = Intern.shared_counts sh in
  Alcotest.check Alcotest.bool "global tier is non-empty" true (values > 0 && rids > 0);
  let a = Intern.create ~shared:sh () and b = Intern.create ~shared:sh () in
  Alcotest.(check (pair int int)) "watermarks match tier" (values, rids) (Intern.watermarks a);
  for i = 0 to 19 do
    let lv = Node.V_layout_id (lbase + i) and vv = Node.V_view_id (vbase + i) in
    Alcotest.check Alcotest.int "layout ids agree across interners" (Intern.value a lv)
      (Intern.value b lv);
    Alcotest.check Alcotest.int "view ids agree across interners" (Intern.value a vv)
      (Intern.value b vv);
    Alcotest.check Alcotest.bool "frozen ids sit below the watermark" true
      (Intern.value a lv < values && Intern.value a vv < values)
  done;
  Alcotest.check Alcotest.int "nothing minted in a" values (Intern.value_count a);
  Alcotest.check Alcotest.int "nothing minted in b" values (Intern.value_count b)

(* Extraction, solving, and querying a whole app never write the
   frozen tier: the global counts are bitwise before = after, and the
   query engine (which only uses non-minting lookups) leaves the
   graph's own pools untouched too. *)
let test_no_mint_through_analysis_and_queries () =
  let before = Intern.shared_counts (Intern.shared_tier ()) in
  let app = Corpus.Apps.generate (Option.get (Corpus.Apps.by_name "XBMC")) in
  let r, solved = Incremental.analyze_solved app in
  let it = Solve.solved_interner solved in
  let wm_values, wm_rids = Intern.watermarks it in
  Alcotest.(check (pair int int)) "graph interner sits on the global tier" before
    (wm_values, wm_rids);
  let counts () = (Intern.value_count it, Intern.rid_count it, Intern.node_count it) in
  let minted = counts () in
  let q = Query.create ~hierarchy:app.Framework.App.hierarchy solved in
  List.iter (fun node -> ignore (Query.points_to q node)) (Graph.locations r.Analysis.graph);
  Alcotest.(check (triple int int int)) "queries mint nothing" minted (counts ());
  Alcotest.(check (pair int int))
    "frozen tier untouched by analysis + queries" before
    (Intern.shared_counts (Intern.shared_tier ()))

(* ------------------------------------------------------------------ *)
(* Differential: shared tier vs private tier, bit-identical *)

let check_shared_private name app =
  List.iter
    (fun (engine, shared, private_) ->
      Same_solution.check
        (Printf.sprintf "%s[%s: shared vs private]" name engine)
        (shared app) (private_ app))
    engines

let test_corpus_apps_shared_private () =
  List.iter
    (fun name ->
      let app = Corpus.Apps.generate (Option.get (Corpus.Apps.by_name name)) in
      check_shared_private name app)
    (* ConnectBot fits inside the frozen view window; Astrid's 230 view
       ids overflow it, so its analysis exercises both tiers at once *)
    [ "ConnectBot"; "Astrid" ]

(* An app whose view-id pool ends exactly at the frozen window edge
   (its last symbol takes the last frozen id), and its sibling one id
   wider (its last symbol is the first private id). *)
let test_watermark_boundary_app () =
  let _, rids = Intern.shared_counts (Intern.shared_tier ()) in
  let base = Option.get (Corpus.Apps.by_name "ConnectBot") in
  let window = Intern.default_view_window in
  List.iter
    (fun view_ids ->
      (* enough layout nodes (each drawing a fresh id, no sharing) to
         exhaust the id pool, so the pool's last id is really used *)
      let spec =
        {
          base with
          Corpus.Spec.sp_name = Printf.sprintf "Boundary%d" view_ids;
          sp_view_ids = view_ids;
          sp_inflated_nodes = 2 * window;
          sp_id_sharing = 0.0;
        }
      in
      (match Corpus.Spec.validate spec with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "boundary spec invalid: %s" msg);
      let app = Corpus.Apps.generate spec in
      (* rids are minted by the interned solve (one per view-id fact),
         so inspect the interner behind an interned-engine analysis *)
      let r = Analysis.analyze app in
      let it = Graph.interner r.Analysis.graph in
      (* the last id of the frozen view window is reachable either way
         (the ⊤ sentinel sits after it, at the last frozen rid) *)
      Alcotest.(check (option int)) "last frozen view id"
        (Some (Intern.default_layout_window + window - 1))
        (Intern.rid_opt it (vbase + window - 1));
      let crossed = view_ids > window in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "view_ids=%d %s the watermark" view_ids
           (if crossed then "crosses" else "stays below"))
        crossed
        (Intern.rid_count it > rids);
      if crossed then
        (* the first symbol past the window got the first private id *)
        Alcotest.(check (option int)) "first overflow view id" (Some rids)
          (Intern.rid_opt it (vbase + window));
      check_shared_private spec.Corpus.Spec.sp_name app)
    [ window; window + 1 ]

let test_cycle_heavy_shared_private () =
  let app =
    Corpus.Gen.cyclic_app ~name:"CycShared" ~chains:3 ~chain_len:9 ~two_cycles:2 ~bridges:4
      ~seed:41 ()
  in
  check_shared_private "CycShared" app

let test_qcheck_shared_private =
  QCheck.Test.make ~count:10 ~name:"random app: shared tier = private tier"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Util.Prng.create seed in
      let spec = Corpus.Gen.random_spec ~name:(Printf.sprintf "QShared_%d" seed) rng in
      check_shared_private spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec);
      true)

(* Whole corpus, both tiers, jobs 1 and 4: the rendered tables must be
   byte-identical — interning strategy may never leak into results.
   The reference analyzes every app over a private interner, in
   sequence; the candidates are the batch driver's shared-tier runs. *)
let private_corpus () =
  List.map
    (fun spec ->
      let analysis = Private_tier.analyze (Corpus.Gen.generate spec) in
      {
        Report.Experiments.cs_spec = spec;
        cs_seconds = 0.;
        cs_run =
          Ok
            {
              cr_spec = spec;
              cr_analysis = analysis;
              cr_table1 = Metrics.table1 analysis;
              cr_table2 = Metrics.table2 analysis;
            };
      })
    Corpus.Apps.specs

let test_corpus_reports_shared_private () =
  let reference = private_corpus () in
  List.iter
    (fun jobs ->
      let candidate = Report.Experiments.run_corpus ~jobs () in
      let label = Printf.sprintf "shared/jobs=%d" jobs in
      Alcotest.check Alcotest.string (label ^ ": table1 bytes")
        (Report.Experiments.table1 reference)
        (Report.Experiments.table1 candidate);
      Alcotest.check Alcotest.string (label ^ ": table2 bytes")
        (Report.Experiments.table2 ~timings:false reference)
        (Report.Experiments.table2 ~timings:false candidate))
    [ 1; 4 ]

let suite =
  [
    Alcotest.test_case "watermark boundary ids and round-trips" `Quick test_watermark_boundary;
    Alcotest.test_case "non-minting lookups on the frozen tier" `Quick test_lookups_never_mint;
    Alcotest.test_case "global tier: stable ids across interners" `Quick
      test_global_tier_stable_ids;
    Alcotest.test_case "analysis and queries never write the tier" `Quick
      test_no_mint_through_analysis_and_queries;
    Alcotest.test_case "corpus apps: shared = private (both engines)" `Quick
      test_corpus_apps_shared_private;
    Alcotest.test_case "app at the watermark edge" `Quick test_watermark_boundary_app;
    Alcotest.test_case "cycle-heavy app: shared = private" `Quick test_cycle_heavy_shared_private;
    QCheck_alcotest.to_alcotest test_qcheck_shared_private;
    Alcotest.test_case "corpus tables byte-identical (jobs 1/4)" `Slow
      test_corpus_reports_shared_private;
  ]
