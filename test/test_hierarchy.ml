open Jir

let decl ?super ?(interfaces = []) ?(kind = `Class) name =
  { Hierarchy.d_name = name; d_kind = kind; d_super = super; d_interfaces = interfaces }

let platform =
  [
    decl "Object";
    decl ~super:"Object" "View";
    decl ~super:"View" "ViewGroup";
    decl ~super:"View" "TextView";
    decl ~super:"TextView" "Button";
    decl ~kind:`Interface "OnClickListener";
  ]

let program_src =
  {|
class A extends View { field f: int; field g: Button;
  method m(x: int): int { return x; } }
class B extends A implements OnClickListener {
  method m(x: int): int { return x; }
  method onClick(v: View): void { } }
class C extends B { }
class D extends Object { method m(x: int): int { return x; } }
|}

let hierarchy () = Hierarchy.create ~platform (Parser.parse_program program_src)

let test_mem_kind () =
  let h = hierarchy () in
  Alcotest.check Alcotest.bool "app class" true (Hierarchy.mem h "A");
  Alcotest.check Alcotest.bool "platform class" true (Hierarchy.mem h "View");
  Alcotest.check Alcotest.bool "absent" false (Hierarchy.mem h "Nope");
  Alcotest.check Alcotest.bool "interface kind" true
    (Hierarchy.kind h "OnClickListener" = Some `Interface)

let test_application () =
  let h = hierarchy () in
  Alcotest.check Alcotest.bool "A is application" true (Hierarchy.is_application h "A");
  Alcotest.check Alcotest.bool "View is platform" false (Hierarchy.is_application h "View")

let test_subtype_reflexive () =
  let h = hierarchy () in
  List.iter
    (fun t -> Alcotest.check Alcotest.bool t true (Hierarchy.subtype h t t))
    (Hierarchy.types h)

let test_subtype_chain () =
  let h = hierarchy () in
  Alcotest.check Alcotest.bool "C <= A" true (Hierarchy.subtype h "C" "A");
  Alcotest.check Alcotest.bool "C <= View" true (Hierarchy.subtype h "C" "View");
  Alcotest.check Alcotest.bool "C <= Object" true (Hierarchy.subtype h "C" "Object");
  Alcotest.check Alcotest.bool "A </= B" false (Hierarchy.subtype h "A" "B");
  Alcotest.check Alcotest.bool "D </= View" false (Hierarchy.subtype h "D" "View")

let test_subtype_interface () =
  let h = hierarchy () in
  Alcotest.check Alcotest.bool "B implements" true (Hierarchy.subtype h "B" "OnClickListener");
  Alcotest.check Alcotest.bool "C inherits interface" true
    (Hierarchy.subtype h "C" "OnClickListener");
  Alcotest.check Alcotest.bool "A does not" false (Hierarchy.subtype h "A" "OnClickListener")

let test_subtypes_set () =
  let h = hierarchy () in
  let subs = List.sort compare (Hierarchy.subtypes h "A") in
  Alcotest.check (Alcotest.list Alcotest.string) "subtypes of A" [ "A"; "B"; "C" ] subs

let test_superclass_chain () =
  let h = hierarchy () in
  Alcotest.check (Alcotest.list Alcotest.string) "chain of C"
    [ "B"; "A"; "View"; "Object" ]
    (Hierarchy.superclass_chain h "C")

let test_field_ty () =
  let h = hierarchy () in
  Alcotest.check Alcotest.bool "own field" true (Hierarchy.field_ty h "A" "f" = Some Ast.Tint);
  Alcotest.check Alcotest.bool "inherited field" true
    (Hierarchy.field_ty h "C" "g" = Some (Ast.Tclass "Button"));
  Alcotest.check Alcotest.bool "missing field" true (Hierarchy.field_ty h "C" "nope" = None)

let key name arity = { Ast.mk_name = name; mk_arity = arity }

let test_resolve () =
  let h = hierarchy () in
  (match Hierarchy.resolve h "C" (key "m" 1) with
  | Some ("B", _) -> ()
  | Some (owner, _) -> Alcotest.failf "resolved to %s" owner
  | None -> Alcotest.fail "no resolution");
  (match Hierarchy.resolve h "A" (key "m" 1) with
  | Some ("A", _) -> ()
  | _ -> Alcotest.fail "A.m should resolve to A");
  Alcotest.check Alcotest.bool "arity matters" true (Hierarchy.resolve h "C" (key "m" 2) = None);
  Alcotest.check Alcotest.bool "platform has no bodies" true
    (Hierarchy.resolve h "Button" (key "m" 1) = None)

(* A same-key program swaps its edited class records in: lookups hand
   out the new bodies, the previous hierarchy keeps the old ones, and a
   changed key refuses the swap. *)
let test_with_program () =
  let p = Parser.parse_program program_src in
  let h = Hierarchy.create ~platform p in
  let map_class name f = { Ast.p_classes = List.map (fun (c : Ast.cls) -> if c.c_name = name then f c else c) p.p_classes } in
  let edited =
    map_class "B" (fun c ->
        { c with c_methods = List.map (fun (m : Ast.meth) -> { m with m_body = m.m_body @ [ Ast.Const_null "x" ] }) c.c_methods })
  in
  let body h = Option.map (fun (_, (m : Ast.meth)) -> List.length m.m_body) (Hierarchy.resolve h "C" (key "m" 1)) in
  (match Hierarchy.with_program h edited with
  | None -> Alcotest.fail "same keys: the hierarchy should be reused"
  | Some h' ->
      Alcotest.(check (option int)) "the new body" (Some 2) (body h');
      Alcotest.(check (option int)) "the previous hierarchy keeps the old body" (Some 1) (body h);
      Alcotest.(check (list string)) "CHA targets" [ "A"; "B"; "D" ]
        (List.sort compare (List.map fst (Hierarchy.cha_targets h' ~recv_ty:None (key "m" 1))));
      Alcotest.(check bool) "fields" true (Hierarchy.field_ty h' "C" "g" = Some (Ast.Tclass "Button")));
  let refused what p' = Alcotest.(check bool) what true (Hierarchy.with_program h p' = None) in
  refused "a new method"
    (map_class "D" (fun c ->
         { c with c_methods = c.c_methods @ [ { Ast.m_name = "n"; m_params = []; m_ret = None; m_locals = []; m_body = [] } ] }));
  refused "a new supertype" (map_class "D" (fun c -> { c with c_super = Some "View" }));
  refused "a new class"
    { Ast.p_classes =
        p.p_classes @ [ { c_name = "E"; c_kind = `Class; c_super = None; c_interfaces = []; c_fields = []; c_methods = [] } ] }

(* Through a patch: an added statement reuses the hierarchy and
   resolves to the patched body; an added method rebuilds it. *)
let test_patch_reuses_hierarchy () =
  let app = Corpus.Gen.generate (Option.get (Corpus.Apps.by_name "NotePad")) in
  let resolved (app : Framework.App.t) name =
    Option.map (fun (_, (m : Ast.meth)) -> m.m_body) (Hierarchy.resolve app.hierarchy "Activity_0" (key name 0))
  in
  let add_stmt = Corpus.Patch.Add_stmt { cls = "Activity_0"; meth = "onCreate"; arity = 0; stmt = Ast.Const_null "x" } in
  let app' = Result.get_ok (Corpus.Patch.apply app [ add_stmt ]) in
  let patched = Option.map (fun (m : Ast.meth) -> m.m_body)
      (Ast.find_meth (Option.get (Ast.find_class app'.program "Activity_0")) (key "onCreate" 0)) in
  Alcotest.(check bool) "resolve returns the patched body" true (resolved app' "onCreate" = patched);
  Alcotest.(check bool) "the unpatched app keeps its body" true (resolved app "onCreate" <> patched);
  let add_method = Corpus.Patch.Add_method { cls = "Activity_0"; name = "added"; params = []; body = [] } in
  let app'' = Result.get_ok (Corpus.Patch.apply app' [ add_method ]) in
  Alcotest.(check bool) "an added method resolves" true (resolved app'' "added" = Some [])

let test_cha_targets () =
  let h = hierarchy () in
  let owners recv_ty = List.map fst (Hierarchy.cha_targets h ~recv_ty (key "m" 1)) in
  Alcotest.check (Alcotest.list Alcotest.string) "on A" [ "A"; "B" ]
    (List.sort compare (owners (Some "A")));
  Alcotest.check (Alcotest.list Alcotest.string) "on B" [ "B" ] (owners (Some "B"));
  Alcotest.check (Alcotest.list Alcotest.string) "unknown type: all" [ "A"; "B"; "D" ]
    (List.sort compare (owners None));
  Alcotest.check (Alcotest.list Alcotest.string) "foreign type: all" [ "A"; "B"; "D" ]
    (List.sort compare (owners (Some "Unknown")))

let test_cha_on_interface () =
  let h = hierarchy () in
  let owners = List.map fst (Hierarchy.cha_targets h ~recv_ty:(Some "OnClickListener") (key "onClick" 1)) in
  Alcotest.check (Alcotest.list Alcotest.string) "interface dispatch" [ "B" ] owners

let test_duplicate_rejected () =
  Alcotest.check_raises "duplicate" (Hierarchy.Hierarchy_error "duplicate type name A") (fun () ->
      ignore (Hierarchy.create ~platform (Parser.parse_program "class A { } class A { }")))

let test_cycle_rejected () =
  match Hierarchy.create (Parser.parse_program "class A extends B { } class B extends A { }") with
  | exception Hierarchy.Hierarchy_error _ -> ()
  | _ -> Alcotest.fail "expected a cycle error"

let test_unknown_super_tolerated () =
  let h = Hierarchy.create (Parser.parse_program "class A extends Mystery { }") in
  Alcotest.check Alcotest.bool "A known" true (Hierarchy.mem h "A");
  Alcotest.check Alcotest.bool "not subtype of unknown... except reflexivity" true
    (Hierarchy.subtype h "A" "Mystery")

let test_iter_methods () =
  let h = hierarchy () in
  let count = ref 0 in
  Hierarchy.iter_methods h (fun _ _ -> incr count);
  Alcotest.check Alcotest.int "method count" 4 !count

(* ------------------------------------------------------------------ *)
(* Differential: the indexed lookups against the scans they replace *)

(* The straightforward definitions, kept here as the oracle.  [types]
   is a [Hashtbl.fold] over the type table, so filtering it is the old
   per-type fold, order included.  [find_meth] is the old
   [Ast.find_meth]: the class's first method whose key equals, scanning
   the whole method list; the class itself is found by name, as the
   type table found it. *)
module Naive = struct
  type t = { h : Hierarchy.t; classes : (string, Ast.cls) Hashtbl.t }

  let make h =
    let classes = Hashtbl.create 64 in
    List.iter (fun (c : Ast.cls) -> Hashtbl.replace classes c.c_name c) (Hierarchy.application_classes h);
    { h; classes }

  let subtypes n name = List.filter (fun ty -> Hierarchy.subtype n.h ty name) (Hierarchy.types n.h)

  let find_meth (c : Ast.cls) key =
    List.find_opt (fun m -> Ast.equal_meth_key (Ast.key_of_meth m) key) c.c_methods

  let own_meth n cls key = Option.bind (Hashtbl.find_opt n.classes cls) (fun c -> find_meth c key)

  let rec resolve n cls key =
    match own_meth n cls key with
    | Some m -> Some (cls, m)
    | None -> ( match Hierarchy.super n.h cls with Some s -> resolve n s key | None -> None)

  let methods_with_key n key =
    List.filter_map
      (fun (c : Ast.cls) -> Option.map (fun m -> (c.c_name, m)) (find_meth c key))
      (Hierarchy.application_classes n.h)

  let cha_targets n ~recv_ty key =
    match recv_ty with
    | Some ty when Hierarchy.mem n.h ty ->
        let seen = Hashtbl.create 8 in
        List.filter_map
          (fun sub ->
            if Hierarchy.kind n.h sub = Some `Class && Hierarchy.is_application n.h sub then
              match resolve n sub key with
              | Some (owner, m) when not (Hashtbl.mem seen owner) ->
                  Hashtbl.add seen owner ();
                  Some (owner, m)
              | _ -> None
            else None)
          (subtypes n ty)
    | _ -> methods_with_key n key
end

(* Methods compare physically: with two same-key methods in one class,
   both sides must pick the same record. *)
let same_targets = List.equal (fun (c1, m1) (c2, m2) -> String.equal c1 c2 && m1 == m2)

let pp_key (k : Ast.meth_key) = Printf.sprintf "%s/%d" k.mk_name k.mk_arity

let pp_recv = function Some ty -> ty | None -> "?"

(* Every type plus every supertype name the hierarchy does not know. *)
let probe_types h =
  let unknown =
    List.concat_map
      (fun (c : Ast.cls) ->
        List.filter
          (fun n -> not (Hierarchy.mem h n))
          (Option.to_list c.c_super @ c.c_interfaces))
      (Hierarchy.application_classes h)
  in
  List.sort_uniq compare (("NoSuchType" :: unknown) @ Hierarchy.types h)

let check_subtypes name (n : Naive.t) =
  List.iter
    (fun ty ->
      if Naive.subtypes n ty <> Hierarchy.subtypes n.h ty then
        Alcotest.failf "%s: subtypes %s differs" name ty)
    (probe_types n.h)

let check_methods name (n : Naive.t) keys =
  List.iter
    (fun key ->
      if not (same_targets (Naive.methods_with_key n key) (Hierarchy.methods_with_key n.h key)) then
        Alcotest.failf "%s: methods_with_key %s differs" name (pp_key key))
    keys

let check_resolve name (n : Naive.t) types keys =
  List.iter
    (fun ty ->
      List.iter
        (fun key ->
          let same =
            match (Naive.resolve n ty key, Hierarchy.resolve n.h ty key) with
            | None, None -> true
            | Some (c1, m1), Some (c2, m2) -> String.equal c1 c2 && m1 == m2
            | _ -> false
          in
          if not same then Alcotest.failf "%s: resolve %s %s differs" name ty (pp_key key))
        keys)
    types

let check_cha name (n : Naive.t) queries =
  List.iter
    (fun (recv_ty, key) ->
      if
        not
          (same_targets (Naive.cha_targets n ~recv_ty key) (Hierarchy.cha_targets n.h ~recv_ty key))
      then Alcotest.failf "%s: cha_targets %s %s differs" name (pp_recv recv_ty) (pp_key key))
    queries

let dedup_keys keys = List.sort_uniq Ast.compare_meth_key keys

(* Every corpus app, probed at the queries extraction makes: each call
   site's key with its inferred receiver type, and with no type. *)
let test_corpus_differential () =
  List.iter
    (fun spec ->
      let app = Corpus.Apps.generate spec in
      let h = app.Framework.App.hierarchy in
      let name = spec.Corpus.Spec.sp_name in
      let sites = ref [] in
      List.iter
        (fun (c : Ast.cls) ->
          List.iter
            (fun (m : Ast.meth) ->
              let env = Framework.App.typing_env app ~owner:c.c_name m in
              List.iter
                (function
                  | Ast.Invoke (_, recv, mname, args) ->
                      let key = { Ast.mk_name = mname; mk_arity = List.length args } in
                      sites := (Typing.class_of env recv, key) :: (None, key) :: !sites
                  | _ -> ())
                m.m_body)
            c.c_methods)
        app.program.p_classes;
      let queries = List.sort_uniq compare !sites in
      let keys = dedup_keys (List.map snd queries) in
      let classes = List.map (fun (c : Ast.cls) -> c.c_name) app.program.p_classes in
      let n = Naive.make h in
      check_subtypes name n;
      check_methods name n keys;
      check_resolve name n classes keys;
      check_cha name n queries)
    Corpus.Apps.specs

let method_names = [ "m"; "n"; "onClick"; "run" ]

(* Random hierarchies: platform and application types, interfaces,
   supertypes nobody declares, and classes defining one key twice.
   Supertypes are drawn from earlier types only, so no cycles. *)
let random_hierarchy seed =
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let unknown = [ "Ghost"; "Phantom" ] in
  let n_platform = 1 + Random.State.int rng 4 and n_app = 1 + Random.State.int rng 10 in
  let kind () = if Random.State.int rng 4 = 0 then `Interface else `Class in
  let super_of earlier =
    match Random.State.int rng 4 with
    | 0 -> None
    | 1 -> Some (pick unknown)
    | _ -> if earlier = [] then None else Some (pick earlier)
  in
  let ifaces_of earlier =
    List.filter (fun _ -> Random.State.int rng 3 = 0) earlier
    @ if Random.State.int rng 5 = 0 then [ pick unknown ] else []
  in
  let platform, names =
    List.fold_left
      (fun (decls, earlier) i ->
        let name = Printf.sprintf "P%d" i in
        let d =
          { Hierarchy.d_name = name; d_kind = kind (); d_super = super_of earlier;
            d_interfaces = ifaces_of earlier }
        in
        (d :: decls, name :: earlier))
      ([], []) (List.init n_platform Fun.id)
  in
  let meth_id = ref 0 in
  let meth () =
    incr meth_id;
    let arity = Random.State.int rng 2 in
    {
      Ast.m_name = pick method_names;
      m_params = List.init arity (fun i -> (Printf.sprintf "p%d" i, Ast.Tint));
      m_ret = None;
      (* a distinct local per method keeps same-key methods apart *)
      m_locals = [ (Printf.sprintf "u%d" !meth_id, Ast.Tint) ];
      m_body = [];
    }
  in
  let classes, _ =
    List.fold_left
      (fun (classes, earlier) i ->
        let name = Printf.sprintf "A%d" i in
        let methods = List.init (Random.State.int rng 4) (fun _ -> meth ()) in
        let methods =
          (* the same key twice in one class *)
          match methods with
          | m :: _ when Random.State.bool rng -> methods @ [ { m with m_locals = [ ("dup", Ast.Tint) ] } ]
          | _ -> methods
        in
        let c =
          { Ast.c_name = name; c_kind = kind (); c_super = super_of earlier;
            c_interfaces = ifaces_of earlier; c_fields = []; c_methods = methods }
        in
        (c :: classes, name :: earlier))
      ([], names) (List.init n_app Fun.id)
  in
  Hierarchy.create ~platform:(List.rev platform) { Ast.p_classes = List.rev classes }

let qcheck_random_differential =
  QCheck.Test.make ~count:300 ~name:"indexed lookups equal the scans on random hierarchies"
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let h = random_hierarchy seed in
      let name = Printf.sprintf "seed %d" seed in
      let keys =
        dedup_keys
          (List.concat_map
             (fun n -> List.init 3 (fun arity -> { Ast.mk_name = n; mk_arity = arity }))
             ("absent" :: method_names))
      in
      let types = probe_types h in
      let n = Naive.make h in
      check_subtypes name n;
      check_methods name n keys;
      check_resolve name n types keys;
      check_cha name n
        (List.concat_map
           (fun key -> (None, key) :: List.map (fun ty -> (Some ty, key)) types)
           keys);
      true)

let suite =
  [
    Alcotest.test_case "mem and kind" `Quick test_mem_kind;
    Alcotest.test_case "application vs platform" `Quick test_application;
    Alcotest.test_case "subtype reflexive" `Quick test_subtype_reflexive;
    Alcotest.test_case "subtype chains" `Quick test_subtype_chain;
    Alcotest.test_case "subtype via interfaces" `Quick test_subtype_interface;
    Alcotest.test_case "subtypes set" `Quick test_subtypes_set;
    Alcotest.test_case "superclass chain" `Quick test_superclass_chain;
    Alcotest.test_case "field type lookup" `Quick test_field_ty;
    Alcotest.test_case "dynamic resolve" `Quick test_resolve;
    Alcotest.test_case "same-key program swaps class records" `Quick test_with_program;
    Alcotest.test_case "a patch reuses the hierarchy unless a key changed" `Quick test_patch_reuses_hierarchy;
    Alcotest.test_case "CHA targets" `Quick test_cha_targets;
    Alcotest.test_case "CHA on interface type" `Quick test_cha_on_interface;
    Alcotest.test_case "duplicate types rejected" `Quick test_duplicate_rejected;
    Alcotest.test_case "cycles rejected" `Quick test_cycle_rejected;
    Alcotest.test_case "unknown supertype tolerated" `Quick test_unknown_super_tolerated;
    Alcotest.test_case "iter_methods" `Quick test_iter_methods;
    Alcotest.test_case "indexed lookups equal the scans on the corpus" `Quick
      test_corpus_differential;
    QCheck_alcotest.to_alcotest qcheck_random_differential;
  ]
