(* Edit-proportional patches: [Incremental.assemble] replays unedited
   methods' extraction fragments and re-extracts only the edited ones.
   Over random patch sequences, each assembled step must give
   - the shape a full [Extract.run ~interner] gives, field for field;
   - a warm solve equal to a cold analysis of the patched app.
   Every reason the assembly declines for is pinned below. *)
open Gator

let config = Config.default

(* Methods with a body, with the variables they mention. *)
let sites (app : Framework.App.t) =
  List.concat_map
    (fun (c : Jir.Ast.cls) ->
      List.filter_map
        (fun (m : Jir.Ast.meth) ->
          if m.m_body = [] then None
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

(* Which declines an edit may cause: a new method changes the method
   fingerprint, a rename to a fresh id grows the resource tables. *)
let may_decline edit reason =
  match (edit : Corpus.Patch.edit) with
  | Add_method _ -> reason = "method set changed"
  | Rename_view_id { to_ = "fresh_id"; _ } -> reason = "the resource tables grew since the previous extraction"
  | _ -> false

(* One step of a sequence: assemble, hold it to the oracles, and
   return the warm solve to patch next.  The cold analysis runs after
   the assembly, as in the daemon, where nothing analyzes the patched
   app before its warm patch. *)
let step what ~prev app edit =
  let app' =
    match Corpus.Patch.apply app [ edit ] with Ok a -> a | Error e -> Alcotest.failf "%s: %s" what e
  in
  match Incremental.assemble ~config ~prev app' with
  | Error reason ->
      if not (may_decline edit reason) then Alcotest.failf "%s: declined (%s)" what reason;
      let warm, solved = Incremental.analyze_incremental ~config ~prev app' in
      Same_solution.check (what ^ ": warm vs cold") (Analysis.analyze ~config app') warm;
      (app', solved, false)
  | Ok a ->
      let shape = Solve.shape_of_graph a.a_graph in
      let full = Extract.run ~interner:(Solve.solved_interner prev) config app' in
      same_shape what shape (Solve.shape_of_graph full);
      let edits = Diff.edit_script ~old_:(Solve.shape_of_solved prev) ~new_:shape in
      let start = Unix.gettimeofday () in
      let stats, solved = Solve.run_incremental ~prev ~edits ~new_shape:shape config app' a.a_graph in
      if not stats.Solve.warm_solve then Alcotest.failf "%s: not warm" what;
      let warm =
        Analysis.make ~app:app' ~config ~graph:a.a_graph ~stats ~solve_seconds:(Unix.gettimeofday () -. start)
      in
      Same_solution.check (what ^ ": warm vs cold") (Analysis.analyze ~config app') warm;
      (app', solved, true)

let sequence what rng app ~length =
  let _, solved = Incremental.analyze_solved ~config app in
  let rec go i app prev assembled =
    if i = length then assembled
    else
      let edit = random_edit rng app in
      let app', solved, hit = step (Printf.sprintf "%s step %d" what i) ~prev app edit in
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
      let app', prev', hit = step (Printf.sprintf "ConnectBot copy %d" i) ~prev app edit in
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
  let _, _, hit = step "VuDroid added seed" ~prev app edit in
  Alcotest.(check bool) "assembled" true hit;
  let app' = Result.get_ok (Corpus.Patch.apply app [ edit ]) in
  let warm, _ = Incremental.analyze_incremental ~config ~prev app' in
  Same_solution.check "VuDroid added seed, through analyze_incremental" (Analysis.analyze ~config app') warm

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
  (match Snapshot.of_json (Snapshot.to_json prev) with
  | Ok loaded -> declines "a loaded snapshot" ~prev:loaded app "the previous solve recorded no fragments"
  | Error e -> Alcotest.failf "snapshot: %s" e);
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

let suite =
  [
    Alcotest.test_case "body edits take the fragment path" `Quick test_body_edits_assemble;
    Alcotest.test_case "only the edited method is re-extracted" `Quick test_reextracts_only_edited;
    Alcotest.test_case "an added seed reaches a restored component" `Quick test_added_seed_on_restored;
    Alcotest.test_case "every decline reason" `Quick test_declines;
    Alcotest.test_case "tables grown before the assembly decline" `Quick test_declines_after_outside_growth;
    QCheck_alcotest.to_alcotest qcheck_corpus;
    QCheck_alcotest.to_alcotest qcheck_random;
  ]
