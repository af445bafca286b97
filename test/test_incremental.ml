(* Incremental re-analysis: the warm path must be BIT-IDENTICAL to a
   from-scratch solve of the patched app — same op solutions, same
   interactions, same transitions — across the patch vocabulary
   (add-handler, remove-view, rename-id, cycle-splitting edits) and
   across warm chains.  A warm start the guard refuses must degrade to
   a full solve surfaced in [stats.fallback], never a crash. *)
open Gator

(* The corpus app under patching: deterministic names (Inc_Activity,
   Inc_Listener, chain variables chN_I) that the JSON patch files in
   incremental/ target. *)
let inc_app () =
  Corpus.Gen.cyclic_app ~name:"Inc" ~chains:2 ~chain_len:6 ~two_cycles:1 ~bridges:2 ~seed:7 ()

let find_method (app : Framework.App.t) ~cls ~name ~arity =
  List.find_opt (fun (c : Jir.Ast.cls) -> c.c_name = cls) app.program.p_classes
  |> Option.map (fun (c : Jir.Ast.cls) ->
         List.find_opt
           (fun (m : Jir.Ast.meth) -> m.m_name = name && List.length m.m_params = arity)
           c.c_methods)
  |> Option.join

let apply_patch app patch =
  match Corpus.Patch.apply app patch with
  | Ok app' -> app'
  | Error e -> Alcotest.failf "patch failed to apply: %s" e

(* A [Remove_stmt] outside the body is refused, naming the method, the
   index and the body's length; the last statement still goes. *)
let test_remove_out_of_range () =
  let app = inc_app () in
  let length = List.length (Option.get (find_method app ~cls:"Inc_Activity" ~name:"onCreate" ~arity:0)).m_body in
  let remove index = [ Corpus.Patch.Remove_stmt { cls = "Inc_Activity"; meth = "onCreate"; arity = 0; index } ] in
  List.iter
    (fun index ->
      match Corpus.Patch.apply app (remove index) with
      | Ok _ -> Alcotest.failf "index %d applied" index
      | Error e ->
          Alcotest.(check string)
            (Printf.sprintf "index %d" index)
            (Printf.sprintf "remove_stmt: Inc_Activity.onCreate/0 has no statement %d (its body has %d)" index length)
            e)
    [ length; length + 1; -1 ];
  let app' = apply_patch app (remove (length - 1)) in
  Alcotest.(check int) "the last statement goes" (length - 1)
    (List.length (Option.get (find_method app' ~cls:"Inc_Activity" ~name:"onCreate" ~arity:0)).m_body)

(* `dune runtest` runs in test/, `dune exec test/main.exe` in the
   project root — accept either. *)
let find_file ~under file =
  let candidates = [ Filename.concat under file; Filename.concat ("test/" ^ under) file ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "%s not found" file

let load_patch file =
  match Corpus.Patch.load (find_file ~under:"incremental" file) with
  | Ok p -> p
  | Error e -> Alcotest.failf "patch %s failed to parse: %s" file e

(* Bit-identity: op-solution diff plus order-insensitive interaction
   and transition comparison. *)
let check_same_solution ~msg (cold : Analysis.t) (warm : Analysis.t) =
  let d = Diff.compare cold warm in
  if not (Diff.is_empty d) then Alcotest.failf "%s: %a" msg Diff.pp d;
  let ix r =
    List.sort compare (List.map (Fmt.str "%a" Analysis.pp_interaction) (Analysis.interactions r))
  in
  Alcotest.check (Alcotest.list Alcotest.string) (msg ^ ": interactions") (ix cold) (ix warm);
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    (msg ^ ": transitions")
    (List.sort compare (Analysis.transitions cold))
    (List.sort compare (Analysis.transitions warm))

let check_warm ~msg (r : Analysis.t) =
  Alcotest.check Alcotest.bool (msg ^ ": warm_solve") true r.stats.Solve.warm_solve;
  Alcotest.check Alcotest.bool (msg ^ ": no fallback") true (r.stats.Solve.fallback = None)

(* Warm-solve [patch] applied to [app] against the captured [prev];
   check bit-identity against a cold analysis of the patched app. *)
let run_patch ~msg ?config app prev patch =
  let app' = apply_patch app patch in
  let warm, solved' = Incremental.analyze_incremental ?config ~prev app' in
  check_warm ~msg warm;
  check_same_solution ~msg (Analysis.analyze ?config app') warm;
  (warm, solved')

(* ------------------------------------------------------------------ *)
(* Warm solves *)

let test_warm_identity () =
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved app in
  let warm, _ = Incremental.analyze_incremental ~prev:solved app in
  check_warm ~msg:"identity" warm;
  Alcotest.check Alcotest.int "no dirty components" 0 warm.stats.Solve.dirty_comps;
  Alcotest.check Alcotest.bool "components reused" true (warm.stats.Solve.reused_comps > 0);
  check_same_solution ~msg:"identity" (Analysis.analyze app) warm

let test_patch_add_handler () =
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved app in
  ignore (run_patch ~msg:"add-handler" app solved (load_patch "add_handler.json"))

let test_patch_rename_id () =
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved app in
  let warm, _ = run_patch ~msg:"rename-id" app solved (load_patch "rename_id.json") in
  (* a seed-only patch cannot dirty the whole condensation (locality
     proper — dirty ≪ total — is measured on XBMC in the benches) *)
  Alcotest.check Alcotest.bool "some components stay clean" true
    (warm.stats.Solve.dirty_comps < warm.stats.Solve.scc_count
    && warm.stats.Solve.reused_comps > 0)

let test_patch_remove_view () =
  let app = inc_app () in
  (* guard the hard-coded statement index against generator drift *)
  (match find_method app ~cls:"Inc_Activity" ~name:"onCreate" ~arity:0 with
  | Some m ->
      Alcotest.check Alcotest.bool "index 23 is the Button allocation" true
        (List.nth_opt m.Jir.Ast.m_body 23 = Some (Jir.Ast.New ("w0", "Button")))
  | None -> Alcotest.fail "Inc_Activity.onCreate not found");
  let _, solved = Incremental.analyze_solved app in
  ignore (run_patch ~msg:"remove-view" app solved (load_patch "remove_view.json"))

let test_patch_cycle_split () =
  let app = inc_app () in
  (match find_method app ~cls:"Inc_Activity" ~name:"onCreate" ~arity:0 with
  | Some m ->
      Alcotest.check Alcotest.bool "index 17 closes ring 1" true
        (List.nth_opt m.Jir.Ast.m_body 17 = Some (Jir.Ast.Copy ("ch1_0", "ch1_5")))
  | None -> Alcotest.fail "Inc_Activity.onCreate not found");
  let _, solved = Incremental.analyze_solved app in
  ignore (run_patch ~msg:"cycle-split" app solved (load_patch "cycle_split.json"))

let test_patch_chain () =
  (* warm-of-warm: carried-forward write targets must keep later
     invalidation sound *)
  let app = inc_app () in
  let _, solved0 = Incremental.analyze_solved app in
  let app1 = apply_patch app (load_patch "rename_id.json") in
  let warm1, solved1 = Incremental.analyze_incremental ~prev:solved0 app1 in
  check_warm ~msg:"chain step 1" warm1;
  let app2 = apply_patch app1 (load_patch "cycle_split.json") in
  let warm2, _ = Incremental.analyze_incremental ~prev:solved1 app2 in
  check_warm ~msg:"chain step 2" warm2;
  check_same_solution ~msg:"chain" (Analysis.analyze app2) warm2

let test_config_change_falls_back () =
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved app in
  let config = { Config.default with cast_filtering = false } in
  let warm, _ = Incremental.analyze_incremental ~config ~prev:solved app in
  Alcotest.check Alcotest.bool "fell back" true (warm.stats.Solve.fallback <> None);
  Alcotest.check Alcotest.bool "not warm" false warm.stats.Solve.warm_solve;
  check_same_solution ~msg:"config fallback" (Analysis.analyze ~config app) warm

let test_methods_changed_not_fallback () =
  (* adding a method is NOT a fallback: resolve-dependent ops are
     re-run instead *)
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved app in
  let patch =
    [
      Corpus.Patch.Add_method
        { cls = "Inc_Listener"; name = "helper"; params = [ "x" ]; body = [ Jir.Ast.Return None ] };
    ]
  in
  ignore (run_patch ~msg:"add-method" app solved patch)

(* Figure 1 with [u = <param>;] at the top of the escape listener's
   onClick, whose parameter is named [param]. *)
let connectbot_with_param param =
  let sub = "method onClick(r: View): void {" in
  let src = Corpus.Connectbot.source in
  let n = String.length sub in
  let rec find i =
    if i + n > String.length src then Alcotest.failf "%S not in the ConnectBot source" sub
    else if String.sub src i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  let code =
    String.sub src 0 i
    ^ Printf.sprintf "method onClick(%s: View): void {\n    u = %s;" param param
    ^ String.sub src (i + n) (String.length src - i - n)
  in
  match
    Framework.App.of_source ~name:"ConnectBot" ~code
      ~layouts:
        [
          ("act_console", Corpus.Connectbot.act_console_xml);
          ("item_terminal", Corpus.Connectbot.item_terminal_xml);
        ]
  with
  | Ok app -> app
  | Error e -> Alcotest.failf "patched ConnectBot does not build: %s" e

(* Renaming a callback parameter changes no op's inputs, yet the
   listener's handler injection now pushes the clicked view into a
   different [N_var]: the method fingerprint covers parameter names,
   so the Set_listener op is re-run and [u] still holds the button. *)
let test_renamed_callback_param () =
  let _, solved = Incremental.analyze_solved (connectbot_with_param "r") in
  let renamed = connectbot_with_param "z" in
  let warm, _ = Incremental.analyze_incremental ~prev:solved renamed in
  check_warm ~msg:"renamed parameter" warm;
  Same_solution.check "renamed parameter: warm vs cold" (Analysis.analyze renamed) warm

(* The guard's refusals that compare the patched app with the captured
   program and package, hashing both only where keys differ or the
   package is another object: a new class and a changed layout each
   fall back with their reason; equal layouts in another package stay
   warm. *)
let test_guard_reasons () =
  let app = connectbot_with_param "r" in
  let _, solved = Incremental.analyze_solved app in
  let fallback app' = (fst (Incremental.analyze_incremental ~prev:solved app')).stats.Solve.fallback in
  let extra =
    { Jir.Ast.c_name = "Extra"; c_kind = `Class; c_super = None; c_interfaces = []; c_fields = []; c_methods = [] }
  in
  Alcotest.(check (option string)) "a new class" (Some "class hierarchy changed")
    (fallback (Framework.App.with_program app { Jir.Ast.p_classes = app.program.p_classes @ [ extra ] }));
  let package = Layouts.Package.create () in
  List.iter
    (fun name ->
      match Layouts.Package.add_xml package ~name Corpus.Connectbot.act_console_xml with
      | Ok () -> ()
      | Error e -> Alcotest.failf "layout %s: %s" name e)
    [ "act_console"; "item_terminal" ];
  Alcotest.(check (option string)) "a changed layout" (Some "layout resources changed")
    (fallback (Framework.App.make ~name:app.name app.program package));
  Alcotest.(check (option string)) "equal layouts in another package" None (fallback (connectbot_with_param "r"))

(* Declarative handlers and declared fragments are read from the
   layouts, and transitions from the solved sets, so a warm restart
   over apps that use them restores none of them: one statement
   appended to [A.onCreate] must re-solve warm and agree with a cold
   analysis, on a result that still shows the feature. *)
let test_warm_declared_features () =
  List.iter
    (fun (msg, code, layouts, shows) ->
      let app =
        match Framework.App.of_source ~name:"T" ~code ~layouts with
        | Ok app -> app
        | Error e -> Alcotest.failf "%s: %s" msg e
      in
      let _, solved = Incremental.analyze_solved app in
      let patched =
        apply_patch app
          [
            Corpus.Patch.Add_stmt
              { cls = "A"; meth = "onCreate"; arity = 0; stmt = Jir.Ast.New ("extra", "Button") };
          ]
      in
      let warm, _ = Incremental.analyze_incremental ~prev:solved patched in
      check_warm ~msg warm;
      Same_solution.check msg (Analysis.analyze patched) warm;
      Alcotest.check Alcotest.bool (msg ^ ": shown") true (shows warm))
    [
      ( "declarative onClick",
        Test_solve.declarative_code,
        Test_solve.declarative_layouts,
        fun r -> Analysis.interactions r <> [] );
      ( "declared fragment",
        Test_solve.declared_fragment_code,
        Test_solve.declared_fragment_layouts,
        fun r -> Analysis.views_at r (Analysis.var ~cls:"A" ~meth:"onCreate" ~arity:0 "v") <> [] );
      ( "transitions",
        Test_solve.transitions_code,
        [],
        fun r -> Analysis.transitions r = [ ("A", "B") ] );
    ]

(* A warm solve never writes to the state it starts from: points-to
   sets are borrowed copy-on-write and relation rows are copied at
   restore.  Every link of a warm chain must read after the whole chain
   exactly as it did when it was captured: its rows and inflation memo
   ([Id_space.rows]) and its shape.  The chain shares and extends one
   interner, whose pools only grow. *)
let check_chain_keeps_prev ~msg app patches =
  let seen (sd : Solve.solved) = (Id_space.rows sd, Marshal.to_string sd.sd_shape []) in
  let _, solved = Incremental.analyze_solved app in
  let _, links =
    List.fold_left
      (fun ((app, prev), links) patch ->
        let app' = apply_patch app patch in
        let warm, solved' = Incremental.analyze_incremental ~prev app' in
        check_warm ~msg warm;
        ((app', solved'), (solved', seen solved') :: links))
      ((app, solved), [ (solved, seen solved) ])
      patches
  in
  List.iteri
    (fun k (sd, before) ->
      let rows, shape = seen sd and rows0, shape0 = before in
      if rows <> rows0 then Alcotest.failf "%s: the rows of link %d changed during the chain" msg k;
      if shape <> shape0 then Alcotest.failf "%s: the shape of link %d changed during the chain" msg k)
    links

let test_warm_keeps_prev () =
  check_chain_keeps_prev ~msg:"Inc chain" (inc_app ())
    (List.map load_patch
       [ "remove_view.json"; "cycle_split.json"; "rename_id.json"; "add_handler.json" ]);
  check_chain_keeps_prev ~msg:"XBMC seed patch"
    (Corpus.Gen.generate (Option.get (Corpus.Apps.by_name "XBMC")))
    [
      [
        Corpus.Patch.Add_stmt
          {
            cls = "Activity_0";
            meth = "onCreate";
            arity = 0;
            stmt = Jir.Ast.New ("verify_tmp", "android.widget.Button");
          };
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Edit-script audit: every relation kind shows up in the diff *)

let test_edit_script_kinds () =
  let app = inc_app () in
  let it = Solve.solved_interner (snd (Incremental.analyze_solved app)) in
  let shape_of app = Solve.shape_of_graph (Extract.run ~interner:it Config.default app) in
  let base = shape_of app in
  let empty = Diff.edit_script ~old_:base ~new_:(shape_of app) in
  Alcotest.check Alcotest.bool "identity script is empty" true (Diff.edit_script_is_empty empty);
  (* removing a cast statement must surface as a removed CAST edge *)
  let no_bridge =
    apply_patch app
      [ Corpus.Patch.Remove_stmt { cls = "Inc_Activity"; meth = "onCreate"; arity = 0; index = 21 } ]
  in
  let es = Diff.edit_script ~old_:base ~new_:(shape_of no_bridge) in
  Alcotest.check Alcotest.bool "cast edge removal detected" true
    (Array.exists (fun (_, k, _) -> k <> -1) es.Solve.es_removed_edges);
  (* renaming an id read must surface as seed edits, not edge edits *)
  let renamed = apply_patch app (load_patch "rename_id.json") in
  let es = Diff.edit_script ~old_:base ~new_:(shape_of renamed) in
  Alcotest.check Alcotest.bool "seed removal detected" true
    (Array.length es.Solve.es_removed_seeds > 0);
  Alcotest.check Alcotest.bool "seed addition detected" true
    (Array.length es.Solve.es_added_seeds > 0);
  Alcotest.check Alcotest.int "no edge edits for a seed patch" 0
    (Array.length es.Solve.es_removed_edges + Array.length es.Solve.es_added_edges);
  (* adding a call adds an op, matched ops keep their indices *)
  let added = apply_patch app (load_patch "add_handler.json") in
  let es = Diff.edit_script ~old_:base ~new_:(shape_of added) in
  Alcotest.check Alcotest.bool "added op detected" true
    (Array.exists (fun x -> x < 0) es.Solve.es_new_to_old);
  Alcotest.check Alcotest.bool "old ops all survive" true
    (Array.for_all (fun x -> x >= 0) es.Solve.es_old_to_new)

(* A warm start the guard refuses (the configuration changed): the
   solve runs cold, and the route says the edit script went unused. *)
let test_refused_route () =
  let app = inc_app () in
  let _, prev = Incremental.analyze_solved app in
  let config = { Config.default with cast_filtering = false } in
  let r, _, route = Incremental.analyze_patch ~config ~prev (apply_patch app (load_patch "add_handler.json")) in
  Alcotest.check Alcotest.(option string) "fallback" (Some "configuration changed") r.stats.Solve.fallback;
  Alcotest.check
    Alcotest.(list (pair string string))
    "route"
    [
      ("assembly", "declined (configuration changed)");
      ("freeze", "full freeze");
      ("edit_script", "unused (full solve: configuration changed)");
    ]
    (Incremental.route_fields ?fallback:r.stats.Solve.fallback route)

(* Context-keyed context sensitivity and warm starts: clone
   constraints live only in the id-level stores, so the structural
   shape diff cannot see them and the warm guard must refuse — the
   documented fallback-to-full-solve path for cs captures.  The
   fallback, for an identity request and for a patched app, stays
   bit-identical to a cold cs solve. *)
let test_ctx_keyed_falls_back () =
  let config = { Config.default with inline_depth = 2 } in
  (* identity warm request on an app that actually mints contexts
     (the cyclic app has no inlinable app-level calls): refused but
     identical *)
  let alias = Corpus.Gen.alias_heavy_app ~groups:3 ~sites_per_group:3 ~seed:7 () in
  let _, solved_alias = Incremental.analyze_solved ~config alias in
  let warm, _ = Incremental.analyze_incremental ~config ~prev:solved_alias alias in
  Alcotest.check Alcotest.bool "fell back" true (warm.stats.Solve.fallback <> None);
  Alcotest.check Alcotest.bool "not warm" false warm.stats.Solve.warm_solve;
  Alcotest.check Alcotest.bool "contexts reported" true (warm.stats.Solve.ctx_count > 0);
  check_same_solution ~msg:"cs identity fallback" (Analysis.analyze ~config alias) warm;
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved ~config app in
  (* a warm request for the patched app is again a clean full solve *)
  let app' = apply_patch app (load_patch "add_handler.json") in
  let warm', _ = Incremental.analyze_incremental ~config ~prev:solved app' in
  Alcotest.check Alcotest.bool "patched app fell back" true (warm'.stats.Solve.fallback <> None);
  check_same_solution ~msg:"cs patched fallback" (Analysis.analyze ~config app') warm'

(* The full solve standing in for a refused warm start carries the
   reason in its stats, not a crash. *)
let test_fallback_surfaced () =
  let app = inc_app () in
  let graph = Extract.run Config.default app in
  let stats, _ = Solve.run_solved ~fallback:"configuration changed" Config.default app graph in
  Alcotest.check Alcotest.bool "fallback surfaced" true (stats.fallback = Some "configuration changed");
  Alcotest.check Alcotest.bool "not warm" false stats.warm_solve

(* ------------------------------------------------------------------ *)
(* Property: random cyclic apps, random edits, warm == cold *)

let qcheck_warm_equals_cold =
  QCheck.Test.make ~name:"warm re-solve equals cold solve on random patches" ~count:25
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Util.Prng.create seed in
      let app = Corpus.Gen.random_cyclic_app rng in
      let edit =
        match Util.Prng.int rng 3 with
        | 0 -> Corpus.Patch.Rename_view_id { from_ = "vid_leaf"; to_ = "vid_root" }
        | 1 ->
            let body_len =
              match find_method app ~cls:"Cyclic_Activity" ~name:"onCreate" ~arity:0 with
              | Some m -> List.length m.Jir.Ast.m_body
              | None -> QCheck.Test.fail_report "Cyclic_Activity.onCreate not found"
            in
            Corpus.Patch.Remove_stmt
              {
                cls = "Cyclic_Activity";
                meth = "onCreate";
                arity = 0;
                index = Util.Prng.int rng body_len;
              }
        | _ ->
            Corpus.Patch.Add_stmt
              {
                cls = "Cyclic_Activity";
                meth = "onCreate";
                arity = 0;
                stmt = Jir.Ast.Copy ("ch0_1", "ch0_0");
              }
      in
      let _, solved = Incremental.analyze_solved app in
      let app' =
        match Corpus.Patch.apply app [ edit ] with
        | Ok app' -> app'
        | Error e -> QCheck.Test.fail_reportf "patch failed: %s" e
      in
      let warm, _ = Incremental.analyze_incremental ~prev:solved app' in
      if not warm.stats.Solve.warm_solve then QCheck.Test.fail_report "solve was not warm";
      let cold = Analysis.analyze app' in
      let d = Diff.compare cold warm in
      if not (Diff.is_empty d) then QCheck.Test.fail_reportf "solutions differ: %a" Diff.pp d;
      (* every location's points-to set and every relation, read back
         through the store the warm solve left *)
      Same_solution.check (Printf.sprintf "warm vs cold (seed %d)" seed) cold warm;
      true)

(* A seed-level patch on random cyclic apps: the rename moves every
   [vid_leaf] seed, and the warm answer equals the cold one. *)
let qcheck_rename_warm_equals_cold =
  QCheck.Test.make ~name:"rename patches on random apps: warm = cold" ~count:10
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Util.Prng.create seed in
      let app = Corpus.Gen.random_cyclic_app rng in
      let _, solved = Incremental.analyze_solved app in
      let app' =
        match Corpus.Patch.apply app [ Corpus.Patch.Rename_view_id { from_ = "vid_leaf"; to_ = "vid_root" } ] with
        | Ok app' -> app'
        | Error e -> QCheck.Test.fail_reportf "patch failed: %s" e
      in
      let warm, _ = Incremental.analyze_incremental ~prev:solved app' in
      if not warm.stats.Solve.warm_solve then QCheck.Test.fail_report "solve was not warm";
      let cold = Analysis.analyze app' in
      let d = Diff.compare cold warm in
      if not (Diff.is_empty d) then QCheck.Test.fail_reportf "solutions differ: %a" Diff.pp d;
      Same_solution.check (Printf.sprintf "rename warm vs cold (seed %d)" seed) cold warm;
      true)

let suite =
  [
    Alcotest.test_case "warm identity re-solve" `Quick test_warm_identity;
    Alcotest.test_case "patch: add handler" `Quick test_patch_add_handler;
    Alcotest.test_case "patch: rename id" `Quick test_patch_rename_id;
    Alcotest.test_case "patch: remove view" `Quick test_patch_remove_view;
    Alcotest.test_case "patch: cycle split" `Quick test_patch_cycle_split;
    Alcotest.test_case "patch: an out-of-range remove is refused" `Quick test_remove_out_of_range;
    Alcotest.test_case "patch chain (warm of warm)" `Quick test_patch_chain;
    Alcotest.test_case "config change falls back" `Quick test_config_change_falls_back;
    Alcotest.test_case "method addition stays warm" `Quick test_methods_changed_not_fallback;
    Alcotest.test_case "renamed callback parameter" `Quick test_renamed_callback_param;
    Alcotest.test_case "guard reasons against the captured app" `Quick test_guard_reasons;
    Alcotest.test_case "warm restarts over declared features" `Quick test_warm_declared_features;
    Alcotest.test_case "warm chains leave their prev intact" `Quick test_warm_keeps_prev;
    Alcotest.test_case "edit script covers all kinds" `Quick test_edit_script_kinds;
    Alcotest.test_case "a refused warm start names its route" `Quick test_refused_route;
    Alcotest.test_case "fallback surfaced in stats" `Quick test_fallback_surfaced;
    Alcotest.test_case "context-keyed cs falls back" `Quick test_ctx_keyed_falls_back;
    QCheck_alcotest.to_alcotest qcheck_warm_equals_cold;
    QCheck_alcotest.to_alcotest qcheck_rename_warm_equals_cold;
  ]
