(* Edit-proportional patches: [Incremental.assemble] replays unedited
   methods' extraction fragments and re-extracts only the edited ones.
   Over random patch sequences, each assembled step must give
   - the shape a full [Extract.run ~interner] gives, field for field;
   - a warm solve equal to a cold analysis of the patched app.
   Every reason the assembly declines for is pinned below. *)
open Gator

let config = Config.default

(* Methods with a body, with the variables they mention.  A patch
   edits every method of its key ([Corpus.Patch.apply] applies it to
   each twin), so of twins only the shortest is a site: a statement
   index drawn from its body exists in all of them. *)
let sites (app : Framework.App.t) =
  let key (m : Jir.Ast.meth) = (m.m_name, List.length m.m_params) in
  List.concat_map
    (fun (c : Jir.Ast.cls) ->
      let has_shorter_twin (m : Jir.Ast.meth) =
        List.exists
          (fun (m' : Jir.Ast.meth) -> key m' = key m && List.length m'.m_body < List.length m.m_body)
          c.c_methods
      in
      List.filter_map
        (fun (m : Jir.Ast.meth) ->
          if m.m_body = [] || has_shorter_twin m then None
          else
            let vars = List.sort_uniq compare (List.concat_map Jir.Ast.stmt_vars m.m_body) in
            Some (c.c_name, m, vars))
        c.c_methods)
    app.program.p_classes
  |> Array.of_list

let view_id_names (app : Framework.App.t) =
  List.sort_uniq compare
    (List.concat_map
       (fun (c : Jir.Ast.cls) ->
         List.concat_map
           (fun (m : Jir.Ast.meth) ->
             List.filter_map (function Jir.Ast.Read_view_id (_, n) -> Some n | _ -> None) m.m_body)
           c.c_methods)
       app.program.p_classes)

let pick rng l = List.nth l (Util.Prng.int rng (List.length l))

(* One random edit of the vocabulary.  Statements only name variables
   and resources the app already has, so a body edit never grows the
   resource tables; renames may pick a fresh id, which does. *)
let random_edit rng app =
  let s = sites app in
  let cls, (m : Jir.Ast.meth), vars = s.(Util.Prng.int rng (Array.length s)) in
  let meth = m.m_name and arity = List.length m.m_params in
  let var () = pick rng vars in
  let ids = view_id_names app in
  match Util.Prng.int rng 8 with
  | 0 | 1 ->
      let stmt =
        match Util.Prng.int rng 6 with
        | 0 -> Jir.Ast.Copy (var (), var ())
        | 1 -> Jir.Ast.New (var (), "android.widget.Button")
        | 2 -> Jir.Ast.Cast (var (), "android.widget.TextView", var ())
        | 3 -> Jir.Ast.Invoke (Some (var ()), var (), "findViewById", [ var () ])
        | 4 when ids <> [] -> Jir.Ast.Read_view_id (var (), pick rng ids)
        | _ -> Jir.Ast.Return (Some (var ()))
      in
      Corpus.Patch.Add_stmt { cls; meth; arity; stmt }
  | 2 | 3 | 4 -> Corpus.Patch.Remove_stmt { cls; meth; arity; index = Util.Prng.int rng (List.length m.m_body) }
  | 5 | 6 when List.length ids >= 2 ->
      let to_ = if Util.Prng.int rng 4 = 0 then "fresh_id" else pick rng ids in
      Corpus.Patch.Rename_view_id { from_ = pick rng ids; to_ }
  | _ -> Corpus.Patch.Add_method { cls; name = "added"; params = [ "v" ]; body = [ Jir.Ast.Return (Some "v") ] }

let same_shape what (a : Solve.shape) (b : Solve.shape) =
  let ints = Alcotest.(array int) in
  Alcotest.(check int) (what ^ ": sh_nodes") a.sh_nodes b.sh_nodes;
  Alcotest.check ints (what ^ ": sh_row") a.sh_row b.sh_row;
  Alcotest.check ints (what ^ ": sh_edst") a.sh_edst b.sh_edst;
  Alcotest.check ints (what ^ ": sh_ekind") a.sh_ekind b.sh_ekind;
  Alcotest.(check (array string)) (what ^ ": sh_cast_names") a.sh_cast_names b.sh_cast_names;
  Alcotest.(check (array (pair int int))) (what ^ ": sh_seeds") a.sh_seeds b.sh_seeds;
  Alcotest.(check bool) (what ^ ": sh_ops") true (a.sh_ops = b.sh_ops)

(* The delta freeze an assembly installed against a full freeze of
   the same graph, field for field. *)
let same_frozen what (d : Graph.flow_csr) (f : Graph.flow_csr) =
  let ints = Alcotest.(array int) in
  Alcotest.(check int) (what ^ ": fc_nodes") f.fc_nodes d.fc_nodes;
  Alcotest.check ints (what ^ ": fc_row") f.fc_row d.fc_row;
  Alcotest.check ints (what ^ ": fc_edst") f.fc_edst d.fc_edst;
  Alcotest.check ints (what ^ ": fc_ekind") f.fc_ekind d.fc_ekind;
  Alcotest.(check (array string)) (what ^ ": fc_cast_names") f.fc_cast_names d.fc_cast_names;
  Alcotest.check ints (what ^ ": fc_rep") f.fc_rep d.fc_rep;
  Alcotest.check ints (what ^ ": fc_crow") f.fc_crow d.fc_crow;
  Alcotest.check ints (what ^ ": fc_cdst") f.fc_cdst d.fc_cdst;
  Alcotest.check ints (what ^ ": fc_ckind") f.fc_ckind d.fc_ckind;
  Alcotest.(check int) (what ^ ": fc_scc_count") f.fc_scc_count d.fc_scc_count;
  Alcotest.(check int) (what ^ ": fc_largest_scc") f.fc_largest_scc d.fc_largest_scc

(* Which declines an edit may cause: a new method changes the method
   fingerprint, a rename to a fresh id grows the resource tables, and
   once a second [added] method shares its twin's key, editing that
   class re-extracts in full. *)
let may_decline edits reason =
  reason = "an edited class defines a method key twice"
  || List.exists
       (fun (edit : Corpus.Patch.edit) ->
         match edit with
         | Add_method _ -> reason = "method set changed"
         | Rename_view_id { to_ = "fresh_id"; _ } -> reason = "the resource tables grew since the previous extraction"
         | _ -> false)
       edits

(* A derived edit script against the shape diff's, field for field
   ([es_moved] aside: the diff leaves it to the solver).  The op maps
   are compared by the static tuples they map to: among ops with one
   tuple (twin methods), which pairs with which is arbitrary. *)
let same_script what ~(old_ : Solve.shape) ~(new_ : Solve.shape) (d : Solve.edit_script) (e : Solve.edit_script) =
  let triples = Alcotest.(array (triple int int int)) and pairs = Alcotest.(array (pair int int)) in
  Alcotest.check triples (what ^ ": removed edges") e.es_removed_edges d.es_removed_edges;
  Alcotest.check triples (what ^ ": added edges") e.es_added_edges d.es_added_edges;
  Alcotest.check pairs (what ^ ": removed seeds") e.es_removed_seeds d.es_removed_seeds;
  Alcotest.check pairs (what ^ ": added seeds") e.es_added_seeds d.es_added_seeds;
  let tuples (s : Solve.shape) = Array.map (fun j -> if j < 0 then None else Some s.sh_ops.(j)) in
  if tuples new_ d.es_old_to_new <> tuples new_ e.es_old_to_new then Alcotest.failf "%s: old to new" what;
  if tuples old_ d.es_new_to_old <> tuples old_ e.es_new_to_old then Alcotest.failf "%s: new to old" what

(* The nodes whose representative differs between two freezes, as a
   comparison of the whole rep maps finds them. *)
let moved_nodes (f0 : Graph.flow_csr) (f1 : Graph.flow_csr) =
  let rep0 v = if v < f0.fc_nodes then f0.fc_rep.(v) else v in
  Array.of_list (List.filter (fun v -> rep0 v <> f1.fc_rep.(v)) (List.init f1.fc_nodes Fun.id))

(* What a captured solve answers: its rep map and every points-to and
   relation row, capacity included. *)
let answers (sd : Solve.solved) =
  let rows = Array.map (Option.map (fun b -> (Util.Bitset.words b, Util.Bitset.elements b))) in
  let sol = sd.sd_solution in
  ( Array.copy sol.sol_rep,
    List.map rows
      [ sol.sol_sets; sol.sol_children; sol.sol_parents; sol.sol_ids; sol.sol_roots; sol.sol_listeners; sd.sd_by_id ] )

let words_of (sd : Solve.solved) =
  Array.fold_left (fun n o -> match o with Some b -> n + Util.Bitset.words b | None -> n) 0 sd.sd_solution.sol_sets

(* The warm solve's carried counts against a walk of the sets it
   captured, its sets at representatives only, and the previous
   solve's answers against what it answered before the patch. *)
let check_restore what ~prev ~before (stats : Solve.stats) (solved : Solve.solved) =
  Alcotest.(check int) (what ^ ": bitset_words = a full count") (words_of solved) stats.bitset_words;
  Alcotest.(check int) (what ^ ": captured words") stats.bitset_words solved.sd_words;
  Alcotest.(check int)
    (what ^ ": captured sets")
    (Array.fold_left (fun n o -> if Option.is_some o then n + 1 else n) 0 solved.sd_solution.sol_sets)
    solved.sd_sets;
  let rep = solved.sd_solution.sol_rep in
  Array.iteri
    (fun r o ->
      if Option.is_some o && r < Array.length rep && rep.(r) <> r then
        Alcotest.failf "%s: a set at %d, which represents no component" what r)
    solved.sd_solution.sol_sets;
  if answers prev <> before then Alcotest.failf "%s: the previous solve's answers changed" what;
  Alcotest.(check int) (what ^ ": previous words") (words_of prev) prev.sd_words

(* One step of a sequence: assemble, hold it to the oracles, and
   return the warm solve to patch next.  The cold analysis runs after
   the assembly, as in the daemon, where nothing analyzes the patched
   app before its warm patch. *)
let step what ~prev app edits =
  let app' =
    match Corpus.Patch.apply app edits with Ok a -> a | Error e -> Alcotest.failf "%s: %s" what e
  in
  let before = answers prev in
  match Incremental.assemble ~config ~prev app' with
  | Error reason ->
      if not (may_decline edits reason) then Alcotest.failf "%s: declined (%s)" what reason;
      (* a declined link still starts warm, from a shape diff *)
      let warm, solved, route = Incremental.analyze_patch ~config ~prev app' in
      Alcotest.(check (option string))
        (what ^ ": edit script") (Some "shape diff (full re-extraction)")
        (List.assoc_opt "edit_script" (Incremental.route_fields route));
      if warm.stats.fallback = None then begin
        if not warm.stats.warm_solve then Alcotest.failf "%s: declined link not warm" what;
        check_restore what ~prev ~before warm.stats solved
      end;
      Same_solution.check (what ^ ": warm vs cold") (Analysis.analyze ~config app') warm;
      (app', solved, false)
  | Ok a ->
      (match a.a_freeze.fz_path with
      | Graph.Full reason -> Alcotest.failf "%s: full freeze (%s)" what reason
      | _ -> same_frozen what (Graph.frozen_flow a.a_graph) (Graph.freeze_with a.a_graph));
      let shape = Solve.shape_of_graph a.a_graph in
      same_shape what shape a.a_shape;
      let full = Extract.run ~interner:(Solve.solved_interner prev) config app' in
      same_shape what shape (Solve.shape_of_graph full);
      let old_ = Solve.shape_of_solved prev in
      let edits = Diff.edit_script ~old_ ~new_:shape in
      (match a.a_script with
      | Incremental.From_delta ->
          same_script what ~old_ ~new_:shape a.a_edits edits;
          Alcotest.(check (option (array int)))
            (what ^ ": moved nodes")
            (Some (moved_nodes (Graph.frozen_flow prev.sd_graph) (Graph.frozen_flow a.a_graph)))
            a.a_edits.es_moved
      | From_diff reason -> Alcotest.failf "%s: edit script by shape diff (%s)" what reason);
      let start = Unix.gettimeofday () in
      let stats, solved = Solve.run_incremental ~prev ~edits:a.a_edits ~new_shape:shape config app' a.a_graph in
      if not stats.Solve.warm_solve then Alcotest.failf "%s: not warm" what;
      check_restore what ~prev ~before stats solved;
      let warm =
        Analysis.make ~app:app' ~config ~graph:a.a_graph ~stats ~solve_seconds:(Unix.gettimeofday () -. start)
      in
      Same_solution.check (what ^ ": warm vs cold") (Analysis.analyze ~config app') warm;
      (app', solved, true)

let sequence ?(patch = fun rng app -> [ random_edit rng app ]) what rng app ~length =
  let _, solved = Incremental.analyze_solved ~config app in
  let rec go i app prev assembled =
    if i = length then assembled
    else
      let app', solved, hit = step (Printf.sprintf "%s step %d" what i) ~prev app (patch rng app) in
      go (i + 1) app' solved (if hit then assembled + 1 else assembled)
  in
  go 0 app solved 0

let small_corpus = [ "APV"; "NotePad"; "OpenManager"; "SuperGenPass"; "TippyTipper"; "VuDroid" ]

let corpus_app name = Corpus.Gen.generate (Option.get (Corpus.Apps.by_name name))

let qcheck_corpus =
  QCheck.Test.make ~name:"fragment patches on corpus apps" ~count:40
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Util.Prng.create seed in
      let name = pick rng small_corpus in
      ignore (sequence (Printf.sprintf "%s (seed %d)" name seed) rng (corpus_app name) ~length:4);
      true)

let qcheck_random =
  QCheck.Test.make ~name:"fragment patches on random apps" ~count:40
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Util.Prng.create seed in
      let app =
        if Util.Prng.int rng 2 = 0 then Corpus.Gen.random_cyclic_app rng
        else Corpus.Gen.generate (Corpus.Gen.random_spec rng)
      in
      ignore (sequence (Printf.sprintf "random (seed %d)" seed) rng app ~length:4);
      true)

(* The sequences above must mostly take the fragment path: body edits
   always do. *)
let test_body_edits_assemble () =
  let rng = Util.Prng.create 25 in
  let app = corpus_app "ConnectBot" in
  let _, prev = Incremental.analyze_solved ~config app in
  let sites = sites app in
  let rec go i app prev =
    if i < 6 then begin
      let cls, (m : Jir.Ast.meth), vars = sites.(Util.Prng.int rng (Array.length sites)) in
      let edit =
        Corpus.Patch.Add_stmt
          { cls; meth = m.m_name; arity = List.length m.m_params; stmt = Jir.Ast.Copy (pick rng vars, pick rng vars) }
      in
      let app', prev', hit = step (Printf.sprintf "ConnectBot copy %d" i) ~prev app [ edit ] in
      Alcotest.(check bool) "a copy statement takes the fragment path" true hit;
      go (i + 1) app' prev'
    end
  in
  go 0 app prev

let test_reextracts_only_edited () =
  let app = corpus_app "XBMC" in
  let _, prev = Incremental.analyze_solved ~config app in
  let cls, (m : Jir.Ast.meth), vars = (sites app).(0) in
  let edit =
    Corpus.Patch.Add_stmt
      { cls; meth = m.m_name; arity = List.length m.m_params; stmt = Jir.Ast.Copy (List.hd vars, List.hd vars) }
  in
  let app' = Result.get_ok (Corpus.Patch.apply app [ edit ]) in
  match Incremental.assemble ~config ~prev app' with
  | Error reason -> Alcotest.failf "declined: %s" reason
  | Ok a ->
      Alcotest.(check int) "one method re-extracted" 1 a.a_reextracted;
      Alcotest.(check int) "of all of them" 3012 a.a_methods

(* An added seed on a variable whose component the warm solve
   restores must reach it: the warm solver used to skip every seed of
   a restored component as already present. *)
let test_added_seed_on_restored () =
  let app = corpus_app "VuDroid" in
  let _, prev = Incremental.analyze_solved ~config app in
  let edit =
    Corpus.Patch.Add_stmt
      { cls = "Activity_1"; meth = "setup_0"; arity = 0; stmt = Jir.Ast.Read_view_id ("w10", "vid_0") }
  in
  let _, _, hit = step "VuDroid added seed" ~prev app [ edit ] in
  Alcotest.(check bool) "assembled" true hit;
  let app' = Result.get_ok (Corpus.Patch.apply app [ edit ]) in
  let warm, _ = Incremental.analyze_incremental ~config ~prev app' in
  Same_solution.check "VuDroid added seed, through analyze_incremental" (Analysis.analyze ~config app') warm

(* Two added seeds on one restored component: the first push turns
   the borrowed set into an owned copy, and the second must still
   reach it. *)
let test_two_added_seeds_on_restored () =
  let app = corpus_app "VuDroid" in
  let _, prev = Incremental.analyze_solved ~config app in
  let add stmt = Corpus.Patch.Add_stmt { cls = "Activity_1"; meth = "setup_0"; arity = 0; stmt } in
  let edits = [ add (Jir.Ast.Read_view_id ("w10", "vid_0")); add (Jir.Ast.New ("w10", "android.widget.Button")) ] in
  let app' = Result.get_ok (Corpus.Patch.apply app edits) in
  let warm, _ = Incremental.analyze_incremental ~config ~prev app' in
  Same_solution.check "VuDroid, two added seeds" (Analysis.analyze ~config app') warm

(* ------------------------------------------------------------------ *)
(* Declines *)

let declines what ?(config = config) ~prev app expected =
  match Incremental.assemble ~config ~prev app with
  | Ok _ -> Alcotest.failf "%s: assembled" what
  | Error reason -> Alcotest.(check string) what expected reason

let with_program (app : Framework.App.t) f = Framework.App.make ~name:app.name (f app.program) app.package

let map_first_method (app : Framework.App.t) f =
  with_program app (fun p ->
      let hit = ref false in
      {
        Jir.Ast.p_classes =
          List.map
            (fun (c : Jir.Ast.cls) ->
              {
                c with
                c_methods =
                  List.map
                    (fun m ->
                      if !hit then m
                      else begin
                        hit := true;
                        f m
                      end)
                    c.c_methods;
              })
            p.p_classes;
      })

let test_declines () =
  let app = corpus_app "NotePad" in
  let _, prev = Incremental.analyze_solved ~config app in
  declines "another configuration" ~config:Config.baseline ~prev app "configuration changed";
  (let keyed = { config with Config.inline_depth = 1 } in
   let _, prev = Incremental.analyze_solved ~config:keyed app in
   declines "inline depth 1" ~config:keyed ~prev app "inline depth > 0: a method's slice holds its inlined callees");
  (let refl = Corpus.Gen.reflective_app ~layouts:3 ~seed:42 () in
   let _, prev = Incremental.analyze_solved ~config refl in
   declines "unknown-id markers" ~prev refl "unknown-id markers present");
  declines "a new class" ~prev
    (with_program app (fun p ->
         {
           Jir.Ast.p_classes =
             p.p_classes
             @ [ { c_name = "Extra"; c_kind = `Class; c_super = None; c_interfaces = []; c_fields = []; c_methods = [] } ];
         }))
    "class hierarchy changed";
  declines "a new method" ~prev
    (Result.get_ok
       (Corpus.Patch.apply app
          [ Corpus.Patch.Add_method { cls = (List.hd app.program.p_classes).c_name; name = "added"; params = []; body = [] } ]))
    "method set changed";
  declines "a new field" ~prev
    (with_program app (fun p ->
         {
           Jir.Ast.p_classes =
             List.mapi
               (fun i (c : Jir.Ast.cls) ->
                 if i = 0 then { c with c_fields = ("extra", Jir.Ast.Tclass "java.lang.Object") :: c.c_fields } else c)
               p.p_classes;
         }))
    "field declarations changed";
  (let twin =
     with_program app (fun p ->
         {
           Jir.Ast.p_classes =
             List.mapi
               (fun i (c : Jir.Ast.cls) -> if i = 0 then { c with c_methods = c.c_methods @ [ List.hd c.c_methods ] } else c)
               p.p_classes;
         })
   in
   let _, prev = Incremental.analyze_solved ~config twin in
   declines "an edited class with a method key twice" ~prev
     (map_first_method twin (fun m -> { m with m_body = m.m_body @ [ Jir.Ast.Const_null "x" ] }))
     "an edited class defines a method key twice");
  declines "a changed return type" ~prev
    (map_first_method app (fun m ->
         { m with m_ret = (if m.m_ret = None then Some Jir.Ast.Tint else None) }))
    "a method's return type changed";
  declines "another layout package" ~prev
    (Framework.App.make ~name:app.name app.program (Layouts.Package.create ()))
    "the layout package is not the previous solve's";
  (* last: it registers a new id in the shared tables *)
  declines "a new resource name" ~prev
    (map_first_method app (fun m -> { m with m_body = m.m_body @ [ Jir.Ast.Read_view_id ("x", "brand_new_id") ] }))
    "the resource tables grew since the previous extraction"

(* Growth from outside the assembly: a cold analysis of the patched
   app registers its new id in the shared tables first.  The assembly
   must still decline, and the full re-extraction answer as cold. *)
let test_declines_after_outside_growth () =
  let app = corpus_app "NotePad" in
  let _, prev = Incremental.analyze_solved ~config app in
  let app' =
    map_first_method app (fun m -> { m with m_body = m.m_body @ [ Jir.Ast.Read_view_id ("x", "brand_new_id") ] })
  in
  let cold = Analysis.analyze ~config app' in
  declines "a new resource name, registered by a cold analysis" ~prev app'
    "the resource tables grew since the previous extraction";
  let warm, _ = Incremental.analyze_incremental ~config ~prev app' in
  Same_solution.check "outside growth: warm vs cold" cold warm

(* ------------------------------------------------------------------ *)
(* Delta freeze *)

let qcheck_cyclic =
  QCheck.Test.make ~name:"fragment patches on cycle-heavy apps" ~count:40
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Util.Prng.create seed in
      ignore (sequence (Printf.sprintf "cyclic (seed %d)" seed) rng (Corpus.Gen.random_cyclic_app rng) ~length:6);
      true)

(* Several copies added to one method in one patch: edges inside a
   component, merges, and searches through groups merged earlier in
   the same freeze. *)
let copies rng app =
  let s = sites app in
  let cls, (m : Jir.Ast.meth), vars = s.(Util.Prng.int rng (Array.length s)) in
  let var () = if Util.Prng.int rng 6 = 0 then "fresh_var" else pick rng vars in
  List.init
    (2 + Util.Prng.int rng 3)
    (fun _ ->
      Corpus.Patch.Add_stmt
        { cls; meth = m.m_name; arity = List.length m.m_params; stmt = Jir.Ast.Copy (var (), var ()) })

let qcheck_cyclic_copies =
  QCheck.Test.make ~name:"several copies per patch on cycle-heavy apps" ~count:40
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Util.Prng.create seed in
      ignore
        (sequence ~patch:copies (Printf.sprintf "copies (seed %d)" seed) rng (Corpus.Gen.random_cyclic_app rng)
           ~length:4);
      true)

let cycle_heavy () =
  Corpus.Gen.cyclic_app ~name:"CycleHeavy" ~chains:4 ~chain_len:24 ~two_cycles:6 ~bridges:8 ~seed:2014 ()

let on_create = { Jir.Ast.mk_name = "onCreate"; mk_arity = 0 }

let body (app : Framework.App.t) cls =
  (Option.get (Jir.Ast.find_meth (Option.get (Jir.Ast.find_class app.program cls)) on_create)).m_body

(* The index of the statement [x = y] in [cls.onCreate]. *)
let copy_index app cls x y =
  match List.find_index (( = ) (Jir.Ast.Copy (x, y))) (body app cls) with
  | Some i -> i
  | None -> Alcotest.failf "no copy %s <- %s in %s.onCreate" x y cls

let ring = "CycleHeavy_Activity"

let add_copy cls x y = Corpus.Patch.Add_stmt { cls; meth = "onCreate"; arity = 0; stmt = Jir.Ast.Copy (x, y) }

let remove_at cls index = Corpus.Patch.Remove_stmt { cls; meth = "onCreate"; arity = 0; index }

(* One assembled patch and its freeze report.  A delta freeze is held
   to the oracles by [step]; a full one must leave the edit script to
   a shape diff, and the warm solve must still equal a cold one. *)
let patched what ~prev app edits =
  let app' = Result.get_ok (Corpus.Patch.apply app edits) in
  match Incremental.assemble ~config ~prev app' with
  | Error reason -> Alcotest.failf "%s: declined (%s)" what reason
  | Ok a -> (
      match a.a_freeze.fz_path with
      | Graph.Full _ ->
          let warm, solved, route = Incremental.analyze_patch ~config ~prev app' in
          Alcotest.(check (option string))
            (what ^ ": edit script") (Some "shape diff (the flow froze in full)")
            (List.assoc_opt "edit_script" (Incremental.route_fields route));
          Same_solution.check (what ^ ": warm vs cold") (Analysis.analyze ~config app') warm;
          (a, app', solved)
      | _ ->
          let app', solved, _ = step what ~prev app edits in
          (a, app', solved))

let path = Alcotest.testable Graph.pp_freeze_path ( = )

(* The ring-splitting and ring-closing edits [experiments verify]
   runs: removing ring 0's closing copy re-condenses its component
   into 24 singletons; adding it back merges them again. *)
let test_ring_split_and_close () =
  let app = cycle_heavy () in
  let _, prev = Incremental.analyze_solved ~config app in
  (* the components ring 0's variables fall in *)
  let ring_comps (g : Graph.t) =
    let fc = Graph.frozen_flow g in
    List.length
      (List.sort_uniq compare
         (List.init 24 (fun i ->
              let mid = { Node.mid_cls = ring; mid_name = "onCreate"; mid_arity = 0 } in
              fc.fc_rep.(Graph.node_id g (Node.N_var (mid, Printf.sprintf "ch0_%d" i))))))
  in
  Alcotest.(check int) "one ring, one component" 1 (ring_comps prev.sd_graph);
  let a, split_app, split = patched "ring split" ~prev app [ remove_at ring (copy_index app ring "ch0_0" "ch0_23") ] in
  Alcotest.check path "ring split path" Graph.Delta_split a.a_freeze.fz_path;
  Alcotest.(check int) "the open ring, 24 components" 24 (ring_comps a.a_graph);
  let a, _, _ = patched "ring close" ~prev:split split_app [ add_copy ring "ch0_0" "ch0_23" ] in
  Alcotest.check path "ring close path" Graph.Delta_merged a.a_freeze.fz_path;
  Alcotest.(check int) "the ring closed again, one component" 1 (ring_comps a.a_graph)

(* Two copies in one patch join two rings: the second closes a cycle
   through the first. *)
let test_two_rings_merge () =
  let app = cycle_heavy () in
  let _, prev = Incremental.analyze_solved ~config app in
  let a, _, _ = patched "two rings" ~prev app [ add_copy ring "ch1_3" "ch0_5"; add_copy ring "ch0_7" "ch1_9" ] in
  Alcotest.check path "merge path" Graph.Delta_merged a.a_freeze.fz_path

(* An added edge inside a component, or one the merge search has
   folded into a group, makes the group its own successor; a later
   edge's search that starts at or passes through that group must
   step over it. *)
let test_search_through_group () =
  let app = cycle_heavy () in
  let _, prev = Incremental.analyze_solved ~config app in
  let a, _, _ =
    patched "inside ring 0, then into it" ~prev app [ add_copy ring "ch0_3" "ch0_10"; add_copy ring "ch0_5" "fresh_src" ]
  in
  Alcotest.check path "inner edge: partition kept" Graph.Delta_kept a.a_freeze.fz_path;
  let a, _, _ =
    patched "two rings merged, then into them" ~prev app
      [ add_copy ring "ch1_3" "ch0_5"; add_copy ring "ch0_7" "ch1_9"; add_copy ring "ch0_2" "fresh_src" ]
  in
  Alcotest.check path "merged, then searched" Graph.Delta_merged a.a_freeze.fz_path

(* An edge the log already holds, added or removed again, changes no
   row: nothing is rebuilt. *)
let test_repeated_edge () =
  let app = cycle_heavy () in
  let _, prev = Incremental.analyze_solved ~config app in
  let a, dup_app, dup = patched "repeated edge added" ~prev app [ add_copy ring "ch2_4" "ch2_3" ] in
  Alcotest.check path "added: partition kept" Graph.Delta_kept a.a_freeze.fz_path;
  Alcotest.(check int) "added: no row rebuilt" 0 a.a_freeze.fz_rows;
  let a, _, _ =
    patched "removed edge still emitted" ~prev:dup dup_app [ remove_at ring (copy_index dup_app ring "ch2_4" "ch2_3") ]
  in
  Alcotest.check path "removed: partition kept" Graph.Delta_kept a.a_freeze.fz_path;
  Alcotest.(check int) "removed: no row rebuilt" 0 a.a_freeze.fz_rows

(* A copy between two variables no extraction has seen mints node ids
   past the previous CSR. *)
let test_new_nodes () =
  let app = corpus_app "XBMC" in
  let _, prev = Incremental.analyze_solved ~config app in
  let n0 = (Graph.frozen_flow prev.sd_graph).fc_nodes in
  let a, _, _ = patched "fresh variables" ~prev app [ add_copy "Activity_0" "fresh_dst" "fresh_src" ] in
  Alcotest.check path "partition kept" Graph.Delta_kept a.a_freeze.fz_path;
  Alcotest.(check bool) "new ids past the previous CSR" true ((Graph.frozen_flow a.a_graph).fc_nodes > n0)

(* Twin method keys in a class the patch leaves alone: the assembly
   goes ahead and takes its edit script from the freeze delta, which
   maps the twins' ops by offset where a shape diff may pair their
   equal ops across methods; the warm solve still equals a cold one. *)
let test_twins_elsewhere () =
  let app = corpus_app "NotePad" in
  let twin =
    with_program app (fun p ->
        {
          Jir.Ast.p_classes =
            List.mapi
              (fun i (c : Jir.Ast.cls) -> if i = 0 then { c with c_methods = c.c_methods @ [ List.hd c.c_methods ] } else c)
              p.p_classes;
        })
  in
  let _, prev = Incremental.analyze_solved ~config twin in
  let cls, (m : Jir.Ast.meth), vars =
    List.find (fun (cls, _, _) -> cls <> (List.hd twin.program.p_classes).c_name) (Array.to_list (sites twin))
  in
  let edit =
    Corpus.Patch.Add_stmt
      { cls; meth = m.m_name; arity = List.length m.m_params; stmt = Jir.Ast.Copy (List.hd vars, List.hd vars) }
  in
  let _, _, hit = step "twins elsewhere" ~prev twin [ edit ] in
  Alcotest.(check bool) "assembled" true hit

(* A long chain of serve-style patches (a copy added, then removed)
   passes the bound on shared edge-log ranges, so links both share
   and copy their predecessor's log; every link's delta freeze must
   still equal a full one. *)
let test_long_chain () =
  let rng = Util.Prng.create 27 in
  let app = corpus_app "ConnectBot" in
  let _, prev = Incremental.analyze_solved ~config app in
  let sites = sites app in
  let rec go i app prev =
    if i < 12 then begin
      let cls, (m : Jir.Ast.meth), vars = sites.(Util.Prng.int rng (Array.length sites)) in
      let meth = m.m_name and arity = List.length m.m_params in
      let add = Corpus.Patch.Add_stmt { cls; meth; arity; stmt = Jir.Ast.Copy (pick rng vars, pick rng vars) } in
      let app', prev', _ = step (Printf.sprintf "chain link %d (add)" i) ~prev app [ add ] in
      let remove = Corpus.Patch.Remove_stmt { cls; meth; arity; index = List.length m.m_body } in
      let app'', prev'', _ = step (Printf.sprintf "chain link %d (remove)" i) ~prev:prev' app' [ remove ] in
      go (i + 1) app'' prev''
    end
  in
  go 0 app prev

(* A cast class first used by an edit early in the log renumbers the
   cast symbols of every later replayed range. *)
let test_cast_renumbering () =
  let app = corpus_app "ConnectBot" in
  let _, prev = Incremental.analyze_solved ~config app in
  let cls, (m : Jir.Ast.meth), vars = (sites app).(0) in
  let v = List.hd vars in
  let edit =
    Corpus.Patch.Add_stmt
      { cls; meth = m.m_name; arity = List.length m.m_params; stmt = Jir.Ast.Cast (v, "brand.NewCast", v) }
  in
  let app', _, hit = step "a new cast class" ~prev app [ edit ] in
  Alcotest.(check bool) "assembled" true hit;
  let names = (Graph.frozen_flow (Extract.run config app')).fc_cast_names in
  Alcotest.(check bool) "the new class numbers before an old one" true
    (names.(Array.length names - 1) <> "brand.NewCast")

(* [Graph.seeds] states its order: the fold of an unseeded stdlib
   table with 128 initial buckets that the seed log is copied into, in
   log order.  The oracle is that table; the stated order must match it
   through every resize, on synthetic logs, on every corpus app at
   depth 0 and context-keyed depth 2, and on an assembled graph. *)
let eager_seeds g =
  let it = Graph.interner g in
  let eager = Hashtbl.create ~random:false 128 in
  for i = 0 to (Graph.cursor g).Graph.c_seeds - 1 do
    let nid, value = Graph.seed_at g i in
    let node = Intern.node_of it nid in
    let values = Option.value (Hashtbl.find_opt eager node) ~default:[] in
    Hashtbl.replace eager node (List.sort_uniq Node.compare_value (value :: values))
  done;
  Hashtbl.fold (fun node values acc -> (node, values) :: acc) eager []

let listed_seeds g = List.map (fun (nid, values) -> (Intern.node_of (Graph.interner g) nid, values)) (Graph.seeds g)

let same_seeds =
  List.equal (fun (n, a) (m, b) -> n = m && List.equal (fun v w -> Node.compare_value v w = 0) a b)

let test_lazy_seed_table () =
  let check what g = Alcotest.(check bool) what true (same_seeds (eager_seeds g) (listed_seeds g)) in
  let g = Graph.create () in
  let var i = Node.N_var ({ Node.mid_cls = "C"; mid_name = "m"; mid_arity = 0 }, Printf.sprintf "v%d" (i mod 300)) in
  for i = 0 to 499 do
    Graph.seed g (var i) (Node.V_view_id i);
    (* the table resizes as its 257th key arrives *)
    if i = 255 || i = 256 then check (Printf.sprintf "%d keys" (i + 1)) g
  done;
  check "after 500 seeds" g;
  for i = 500 to 999 do
    Graph.seed g (var (7 * i)) (Node.V_view_id (i mod 41))
  done;
  check "after 500 more, read in between" g;
  List.iter
    (fun (spec : Corpus.Spec.t) ->
      let app = Corpus.Gen.generate spec in
      check (spec.sp_name ^ "@0") (Extract.run config app);
      check (spec.sp_name ^ "@cs2") (Extract.run { config with inline_depth = 2 } app))
    Corpus.Apps.specs;
  (* an assembled graph lists its seeds as a full extraction does *)
  let app = corpus_app "ConnectBot" in
  let _, prev = Incremental.analyze_solved ~config app in
  let (cls, (m : Jir.Ast.meth), vars) = (sites app).(3) in
  let app' =
    Result.get_ok
      (Corpus.Patch.apply app
         [ Corpus.Patch.Add_stmt { cls; meth = m.m_name; arity = List.length m.m_params; stmt = Jir.Ast.New (List.hd vars, "android.app.Dialog") } ])
  in
  let a = Result.get_ok (Incremental.assemble ~config ~prev app') in
  let full = Extract.run ~interner:(Solve.solved_interner prev) config app' in
  check "assembled graph" a.a_graph;
  Alcotest.(check bool) "assembled = full extraction, in order" true (same_seeds (listed_seeds full) (listed_seeds a.a_graph))

(* Every reason the delta freeze falls back to a full one for. *)
let test_full_freeze_reasons () =
  let full what expected (r : Graph.freeze_report) =
    Alcotest.check path what (Graph.Full expected) r.fz_path
  in
  let app = corpus_app "NotePad" in
  let _, prev = Incremental.analyze_solved ~config app in
  let app' = Result.get_ok (Corpus.Patch.apply app [ add_copy "Activity_0" "x" "y" ]) in
  let graph, edited = Result.get_ok (Extract.reextract config app' ~prev:prev.sd_graph) in
  (* a depth-1 extraction records no fragments *)
  (let keyed = Extract.run ~interner:(Solve.solved_interner prev) { config with Config.inline_depth = 1 } app in
   full "a previous graph without fragments" "a graph recorded no fragments" (Graph.freeze_delta graph ~prev:keyed ~edited));
  (let unfrozen = Extract.run ~interner:(Solve.solved_interner prev) config app in
   let graph, edited = Result.get_ok (Extract.reextract config app' ~prev:unfrozen) in
   full "an unfrozen previous graph" "the previous graph's frozen flow is missing or stale"
     (Graph.freeze_delta graph ~prev:unfrozen ~edited));
  full "another interner" "the graphs do not share an interner"
    (Graph.freeze_delta (Extract.run config app') ~prev:prev.sd_graph ~edited);
  (* ring 2 loses an inner copy while two copies join rings 0 and 1 *)
  let app = cycle_heavy () in
  let _, prev = Incremental.analyze_solved ~config app in
  let a, _, _ =
    patched "split and merge" ~prev app
      [ remove_at ring (copy_index app ring "ch2_5" "ch2_4"); add_copy ring "ch1_3" "ch0_5"; add_copy ring "ch0_7" "ch1_9" ]
  in
  full "a cycle through a removed edge" "an added edge may close a cycle through a removed one" a.a_freeze;
  (* the only path from v0 into ring 0 goes while an edge back closes
     a cycle over it in the previous condensation *)
  let a, _, _ =
    patched "a stale cycle" ~prev app [ remove_at ring (copy_index app ring "ch0_0" "v0"); add_copy ring "v0" "ch0_5" ]
  in
  full "a cycle only through a removed edge" "an added edge may close a cycle through a removed one" a.a_freeze

let suite =
  [
    Alcotest.test_case "body edits take the fragment path" `Quick test_body_edits_assemble;
    Alcotest.test_case "only the edited method is re-extracted" `Quick test_reextracts_only_edited;
    Alcotest.test_case "an added seed reaches a restored component" `Quick test_added_seed_on_restored;
    Alcotest.test_case "two added seeds reach one restored component" `Quick test_two_added_seeds_on_restored;
    Alcotest.test_case "every decline reason" `Quick test_declines;
    Alcotest.test_case "tables grown before the assembly decline" `Quick test_declines_after_outside_growth;
    Alcotest.test_case "delta freeze: ring split and ring close" `Quick test_ring_split_and_close;
    Alcotest.test_case "delta freeze: two rings merge" `Quick test_two_rings_merge;
    Alcotest.test_case "delta freeze: a search through a merged group" `Quick test_search_through_group;
    Alcotest.test_case "delta freeze: a repeated edge rebuilds nothing" `Quick test_repeated_edge;
    Alcotest.test_case "delta freeze: ids past the previous CSR" `Quick test_new_nodes;
    Alcotest.test_case "delta freeze: a long patch chain" `Quick test_long_chain;
    Alcotest.test_case "twin method keys in an unedited class" `Quick test_twins_elsewhere;
    Alcotest.test_case "delta freeze: cast symbols renumbered" `Quick test_cast_renumbering;
    Alcotest.test_case "seed table folded from the log in order" `Quick test_lazy_seed_table;
    Alcotest.test_case "every full-freeze reason" `Quick test_full_freeze_reasons;
    QCheck_alcotest.to_alcotest qcheck_corpus;
    QCheck_alcotest.to_alcotest qcheck_random;
    QCheck_alcotest.to_alcotest qcheck_cyclic;
    QCheck_alcotest.to_alcotest qcheck_cyclic_copies;
  ]
