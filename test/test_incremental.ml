(* Incremental re-analysis: the warm path must be BIT-IDENTICAL to a
   from-scratch solve of the patched app — same op solutions, same
   interactions, same transitions — across the patch vocabulary
   (add-handler, remove-view, rename-id, cycle-splitting edits), across
   warm chains, and across a snapshot round-trip.  Corrupted or stale
   state must degrade to a full solve surfaced in [stats.fallback],
   never a crash. *)
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

let load_patch file =
  (* `dune runtest` runs in test/, `dune exec test/main.exe` in the
     project root — accept either. *)
  let candidates = [ Filename.concat "incremental" file; Filename.concat "test/incremental" file ] in
  let path =
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None -> Alcotest.failf "patch %s not found" file
  in
  match Corpus.Patch.load path with
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

(* ------------------------------------------------------------------ *)
(* Snapshots *)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_snapshot_roundtrip () =
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved app in
  let path = Filename.temp_file "gator_snap" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Snapshot.save solved path;
      match Snapshot.load path with
      | Error e -> Alcotest.failf "round-trip load failed: %s" e
      | Ok loaded ->
          let app' = apply_patch app (load_patch "add_handler.json") in
          let warm, _ = Incremental.analyze_incremental ~prev:loaded app' in
          check_warm ~msg:"snapshot warm" warm;
          check_same_solution ~msg:"snapshot warm" (Analysis.analyze app') warm)

let test_snapshot_corrupt () =
  let path = Filename.temp_file "gator_snap" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "{not json!");
      (match Snapshot.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "corrupt file loaded");
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "{\"magic\": \"SOMETHING-ELSE\", \"version\": 1}");
      match Snapshot.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "foreign file loaded")

(* A snapshot whose JSON nests past [Util.Json.max_depth] loads as an
   [Error], like any other corrupt file; one level less still loads
   (the loader ignores the extra field). *)
let test_snapshot_too_deep () =
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved app in
  let rec nest n = if n = 0 then Util.Json.Null else Util.Json.List [ nest (n - 1) ] in
  let load_with depth =
    let doc =
      match Snapshot.to_json solved with
      | Util.Json.Obj fields -> Util.Json.Obj (fields @ [ ("deep", nest depth) ])
      | _ -> Alcotest.fail "snapshot is not an object"
    in
    let path = Filename.temp_file "gator_snap" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (Util.Json.to_string doc));
        Snapshot.load path)
  in
  (match load_with (Util.Json.max_depth - 1) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "snapshot at the depth bound refused: %s" e);
  match load_with Util.Json.max_depth with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "snapshot nested past the depth bound loaded"

let test_snapshot_stale_version () =
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved app in
  let stale =
    match Snapshot.to_json solved with
    | Util.Json.Obj fields ->
        Util.Json.Obj
          (List.map (function "version", _ -> ("version", Util.Json.Int 999) | f -> f) fields)
    | _ -> Alcotest.fail "snapshot is not an object"
  in
  match Snapshot.of_json stale with
  | Error e ->
      Alcotest.check Alcotest.bool "reason names the version" true (contains ~sub:"version" e)
  | Ok _ -> Alcotest.fail "stale version accepted"

(* State written by an older build's [delta] engine under
   [--incremental] names a solver this build lacks:
   the load is refused with a reason naming it, and the CLI's path —
   full solve with the reason threaded into [stats.fallback] — prints
   that reason in the refusal warning. *)
let test_snapshot_removed_solver () =
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved app in
  let with_delta = function
    | "config", Util.Json.Obj cfields ->
        ( "config",
          Util.Json.Obj
            (List.map
               (function "solver", _ -> ("solver", Util.Json.String "delta") | f -> f)
               cfields) )
    | f -> f
  in
  let path = Filename.temp_file "gator_snap" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Snapshot.to_json solved with
      | Util.Json.Obj fields ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc
                (Util.Json.to_string (Util.Json.Obj (List.map with_delta fields))))
      | _ -> Alcotest.fail "snapshot is not an object");
      match Snapshot.load path with
      | Ok _ -> Alcotest.fail "state naming the delta solver loaded"
      | Error reason ->
          Alcotest.check Alcotest.string "reason names the solver" "unknown solver delta" reason;
          let r, _ = Incremental.analyze_solved ~fallback:reason app in
          Alcotest.check Alcotest.bool "full solve" false r.stats.Solve.warm_solve;
          Alcotest.check (Alcotest.option Alcotest.string) "refusal warning"
            (Some "incremental: warm start refused (unknown solver delta); ran a full solve")
            (Incremental.refusal_warning r);
          check_same_solution ~msg:"removed-solver fallback" (Analysis.analyze app) r)

(* Retired config fields.  Files written before the shared interner
   tier existed carry no [shared_intern] field, and a file may omit any
   retired field: it loads and warm-solves bit-identically.  A retired
   field at any other value than the one every build wrote — a
   [ctx_keyed: false] state file, say — is a clean refusal naming the
   field. *)
let retired_fields =
  [
    ("inline_body_limit", Util.Json.Int 25);
    ("ctx_keyed", Util.Json.Bool false);
    ("jobs", Util.Json.Int 4);
    ("incremental", Util.Json.Bool true);
    ("shared_intern", Util.Json.Int 42);
  ]

let test_snapshot_pre_split_compat () =
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved app in
  let map_config f =
    match Snapshot.to_json solved with
    | Util.Json.Obj fields ->
        Util.Json.Obj
          (List.map
             (function
               | "config", Util.Json.Obj cfields -> ("config", Util.Json.Obj (f cfields))
               | fld -> fld)
             fields)
    | _ -> Alcotest.fail "snapshot is not an object"
  in
  let stripped = map_config (List.filter (fun (k, _) -> not (List.mem_assoc k retired_fields))) in
  (match Snapshot.of_json stripped with
  | Error e -> Alcotest.failf "snapshot without retired fields refused: %s" e
  | Ok loaded ->
      let app' = apply_patch app (load_patch "add_handler.json") in
      let warm, _ = Incremental.analyze_incremental ~prev:loaded app' in
      check_warm ~msg:"pre-split warm" warm;
      check_same_solution ~msg:"pre-split warm" (Analysis.analyze app') warm);
  List.iter
    (fun (field, value) ->
      let bad = map_config (List.map (fun (k, v) -> if k = field then (k, value) else (k, v))) in
      match Snapshot.of_json bad with
      | Error e ->
          Alcotest.check Alcotest.bool ("reason names " ^ field) true (contains ~sub:field e)
      | Ok _ -> Alcotest.failf "%s = %s accepted" field (Util.Json.to_string value))
    retired_fields

(* Context-keyed context sensitivity and warm starts: clone
   constraints live only in the id-level stores, so the structural
   shape diff cannot see them and the warm guard must refuse — the
   documented fallback-to-full-solve path for cs snapshots.  The
   fallback, including across a snapshot round-trip of the keyed
   solved state, stays bit-identical to a cold cs solve. *)
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
  (* keyed solved state round-trips (clone nodes are ordinary pool
     entries), and a warm request against the loaded state is again a
     clean full solve of the patched app *)
  let path = Filename.temp_file "gator_snap_cs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Snapshot.save solved path;
      match Snapshot.load path with
      | Error e -> Alcotest.failf "cs snapshot load failed: %s" e
      | Ok loaded ->
          let app' = apply_patch app (load_patch "add_handler.json") in
          let warm', _ = Incremental.analyze_incremental ~config ~prev:loaded app' in
          Alcotest.check Alcotest.bool "snapshot fell back" true
            (warm'.stats.Solve.fallback <> None);
          check_same_solution ~msg:"cs snapshot fallback" (Analysis.analyze ~config app') warm')

let test_fallback_surfaced () =
  (* the driver path for a bad state file: full solve with the reason
     in stats, not a crash *)
  let app = inc_app () in
  let r, _ = Incremental.analyze_solved ~fallback:"corrupt state file: boom" app in
  Alcotest.check Alcotest.bool "fallback surfaced" true
    (r.stats.Solve.fallback = Some "corrupt state file: boom");
  Alcotest.check Alcotest.bool "not warm" false r.stats.Solve.warm_solve

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

let qcheck_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot round-trip preserves warm solves" ~count:10
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Util.Prng.create seed in
      let app = Corpus.Gen.random_cyclic_app rng in
      let _, solved = Incremental.analyze_solved app in
      match Snapshot.of_json (Snapshot.to_json solved) with
      | Error e -> QCheck.Test.fail_reportf "round trip failed: %s" e
      | Ok loaded ->
          let app' =
            match
              Corpus.Patch.apply app
                [ Corpus.Patch.Rename_view_id { from_ = "vid_leaf"; to_ = "vid_root" } ]
            with
            | Ok app' -> app'
            | Error e -> QCheck.Test.fail_reportf "patch failed: %s" e
          in
          let warm, _ = Incremental.analyze_incremental ~prev:loaded app' in
          if not warm.stats.Solve.warm_solve then QCheck.Test.fail_report "solve was not warm";
          let cold = Analysis.analyze app' in
          let d = Diff.compare cold warm in
          if not (Diff.is_empty d) then QCheck.Test.fail_reportf "solutions differ: %a" Diff.pp d;
          Same_solution.check (Printf.sprintf "loaded warm vs cold (seed %d)" seed) cold warm;
          true)

(* Hostile snapshots: whatever a state file holds, [Snapshot.of_json]
   and [Snapshot.load] answer [Ok] or [Error] — never an exception, and
   never an allocation sized by an id read from the file — in bounded
   time, and every integer mutation that loads also warm-starts.  Each
   mutation hits two seed documents: a real ConnectBot snapshot, and a
   sound-mode (⊤) snapshot of a reflective app, whose taint rows get
   mutated too. *)
let fuzz_seeds =
  lazy
    (List.map
       (fun app ->
         let _, solved = Incremental.analyze_solved app in
         (app, Snapshot.to_json solved))
       [
         Corpus.Connectbot.app ();
         Corpus.Gen.reflective_app ~name:"FuzzTop" ~layouts:2 ~seed:11 ();
       ])

(* The ⊤ seed really carries taint rows for the fuzzers to mutate. *)
let test_fuzz_seed_tainted () =
  match Lazy.force fuzz_seeds with
  | [ _; (_, top) ] -> (
      match Util.Json.member "taints" top with
      | Some (Util.Json.List (_ :: _)) -> ()
      | _ -> Alcotest.fail "the sound-mode fuzz seed has no taint rows")
  | _ -> Alcotest.fail "expected two fuzz seeds"

let rec count_ints = function
  | Util.Json.Int _ -> 1
  | Util.Json.List l -> List.fold_left (fun acc j -> acc + count_ints j) 0 l
  | Util.Json.Obj fields -> List.fold_left (fun acc (_, j) -> acc + count_ints j) 0 fields
  | _ -> 0

(* The document with its [k]-th integer (preorder) replaced by [f n]. *)
let map_nth_int k f json =
  let seen = ref 0 in
  let rec go = function
    | Util.Json.Int n ->
        let i = !seen in
        incr seen;
        Util.Json.Int (if i = k then f n else n)
    | Util.Json.List l -> Util.Json.List (List.map go l)
    | Util.Json.Obj fields -> Util.Json.Obj (List.map (fun (name, j) -> (name, go j)) fields)
    | j -> j
  in
  go json

let fuzz_budget_s = 10.0

(* A loaded snapshot must also warm-start: against the app it was
   taken from, the answer is a warm result or a fallback with a
   reason, never an exception. *)
let warm_start app prev =
  let r, _ = Incremental.analyze_incremental ~prev app in
  if not (r.stats.Solve.warm_solve || r.stats.Solve.fallback <> None) then
    QCheck.Test.fail_report "neither warm nor a fallback with a reason"

let must_answer what decode =
  let t0 = Unix.gettimeofday () in
  (match decode () with
  | Ok _ | Error _ -> ()
  | exception e -> QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e));
  let dt = Unix.gettimeofday () -. t0 in
  if dt > fuzz_budget_s then QCheck.Test.fail_reportf "%s took %.1fs" what dt;
  true

let qcheck_snapshot_int_mutations =
  QCheck.Test.make ~name:"hostile snapshots: integer mutations" ~count:300
    QCheck.(make Gen.(pair (int_range 0 1_000_000) (int_range 0 8)))
    (fun (pick, how) ->
      let hostile n =
        match how with
        | 0 -> 1 lsl 40
        | 1 -> -1
        | 2 -> -(1 lsl 40)
        | 3 -> max_int
        | 4 -> min_int
        | 5 -> 0
        | 6 -> n + 1
        | 7 -> n - 1
        | _ -> n * 1000
      in
      List.for_all
        (fun (app, seed) ->
          let k = pick mod count_ints seed in
          let mutated = map_nth_int k hostile seed in
          must_answer
            (Printf.sprintf "%s integer #%d (mode %d)" app.Framework.App.name k how)
            (fun () ->
              match Snapshot.of_json mutated with
              | Error e -> Error e
              | Ok prev -> Ok (warm_start app prev)))
        (Lazy.force fuzz_seeds))

let qcheck_snapshot_byte_mutations =
  QCheck.Test.make ~name:"hostile snapshots: byte mutations" ~count:100
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Util.Prng.create seed in
      List.for_all
        (fun ((app : Framework.App.t), doc) ->
          let bytes = Bytes.of_string (Util.Json.to_string doc) in
          for _ = 1 to 1 + Util.Prng.int rng 4 do
            let at = Util.Prng.int rng (Bytes.length bytes) in
            Bytes.set bytes at
              (if Util.Prng.bool rng then Char.chr (Util.Prng.int rng 256)
               else
                 let syntax = "0123456789-[]{}\",:e" in
                 syntax.[Util.Prng.int rng (String.length syntax)])
          done;
          let path = Filename.temp_file "gator_fuzz" ".json" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
              must_answer
                (Printf.sprintf "%s byte mutation (seed %d)" app.name seed)
                (fun () -> Snapshot.load path)))
        (Lazy.force fuzz_seeds))

let suite =
  [
    Alcotest.test_case "warm identity re-solve" `Quick test_warm_identity;
    Alcotest.test_case "patch: add handler" `Quick test_patch_add_handler;
    Alcotest.test_case "patch: rename id" `Quick test_patch_rename_id;
    Alcotest.test_case "patch: remove view" `Quick test_patch_remove_view;
    Alcotest.test_case "patch: cycle split" `Quick test_patch_cycle_split;
    Alcotest.test_case "patch chain (warm of warm)" `Quick test_patch_chain;
    Alcotest.test_case "config change falls back" `Quick test_config_change_falls_back;
    Alcotest.test_case "method addition stays warm" `Quick test_methods_changed_not_fallback;
    Alcotest.test_case "edit script covers all kinds" `Quick test_edit_script_kinds;
    Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot corrupt input" `Quick test_snapshot_corrupt;
    Alcotest.test_case "snapshot stale version" `Quick test_snapshot_stale_version;
    Alcotest.test_case "snapshot nested past the depth bound" `Quick test_snapshot_too_deep;
    Alcotest.test_case "snapshot naming a removed solver" `Quick test_snapshot_removed_solver;
    Alcotest.test_case "snapshot pre-split compatibility" `Quick test_snapshot_pre_split_compat;
    Alcotest.test_case "fallback surfaced in stats" `Quick test_fallback_surfaced;
    Alcotest.test_case "context-keyed cs falls back" `Quick test_ctx_keyed_falls_back;
    QCheck_alcotest.to_alcotest qcheck_warm_equals_cold;
    QCheck_alcotest.to_alcotest qcheck_snapshot_roundtrip;
    Alcotest.test_case "sound-mode fuzz seed carries taint rows" `Quick test_fuzz_seed_tainted;
    QCheck_alcotest.to_alcotest qcheck_snapshot_int_mutations;
    QCheck_alcotest.to_alcotest qcheck_snapshot_byte_mutations;
  ]
