open Jir

let platform = Framework.Api.platform_decls

let no_external ~recv_ty:_ _ _ = None

let env_of ?(external_return = no_external) ~owner src meth_name =
  let program = Parser.parse_program src in
  let hierarchy = Hierarchy.create ~platform program in
  let cls = Option.get (Ast.find_class program owner) in
  let m = List.find (fun (m : Ast.meth) -> m.m_name = meth_name) cls.c_methods in
  Typing.infer ~hierarchy ~external_return ~owner m

let check_ty env v expected =
  Alcotest.check Alcotest.bool (Printf.sprintf "type of %s" v) true
    (Typing.ty_of env v = expected)

let test_this_and_params () =
  let env = env_of ~owner:"C" "class C { method m(a: int, b: Button): void { } }" "m" in
  check_ty env "this" (Some (Ast.Tclass "C"));
  check_ty env "a" (Some Ast.Tint);
  check_ty env "b" (Some (Ast.Tclass "Button"))

let test_new_and_cast () =
  let env =
    env_of ~owner:"C" "class C { method m(): void { x = new Button(); y = (TextView) x; } }" "m"
  in
  check_ty env "x" (Some (Ast.Tclass "Button"));
  check_ty env "y" (Some (Ast.Tclass "TextView"))

let test_resource_ints () =
  let env =
    env_of ~owner:"C" "class C { method m(): void { a = R.layout.l; b = R.id.v; c = 3; } }" "m"
  in
  check_ty env "a" (Some Ast.Tint);
  check_ty env "b" (Some Ast.Tint);
  check_ty env "c" (Some Ast.Tint)

let test_copy_chain () =
  let env = env_of ~owner:"C" "class C { method m(): void { x = new Button(); y = x; z = y; } }" "m" in
  check_ty env "z" (Some (Ast.Tclass "Button"))

let test_field_type () =
  let env =
    env_of ~owner:"C" "class C { field f: TextView; method m(): void { x = this.f; } }" "m"
  in
  check_ty env "x" (Some (Ast.Tclass "TextView"))

let test_app_call_return () =
  let src =
    "class C { method mk(): Button { x = new Button(); return x; } method m(): void { y = this.mk(); } }"
  in
  let env = env_of ~owner:"C" src "m" in
  check_ty env "y" (Some (Ast.Tclass "Button"))

let test_external_return () =
  let env =
    env_of ~external_return:Framework.Api.return_ty ~owner:"C"
      "class C { method m(x: Button): void { v = x.findViewById(a); a = R.id.q; } }" "m"
  in
  check_ty env "v" (Some (Ast.Tclass "View"))

let test_join_to_lcs () =
  (* x is assigned Button and TextView along different statements: the
     inferred type must be their least common superclass TextView. *)
  let env =
    env_of ~owner:"C"
      "class C { method m(): void { x = new Button(); x = new TextView(); } }" "m"
  in
  check_ty env "x" (Some (Ast.Tclass "TextView"))

let test_conflict_is_unknown () =
  (* int vs reference: irreconcilable, must stay unknown (soundness of
     CHA depends on it). *)
  let env = env_of ~owner:"C" "class C { method m(): void { x = new Button(); x = 3; } }" "m" in
  check_ty env "x" None

let test_declared_wins () =
  let env =
    env_of ~owner:"C" "class C { method m(): void { var x: View; x = new Button(); } }" "m"
  in
  check_ty env "x" (Some (Ast.Tclass "View"))

(* A def-use chain longer than any fixed round budget: each round
   carries TextView one copy further back through the chain.  Stopping
   early would leave the tail untyped and type x12 by its later
   definition alone (Button), and CHA on x12 would then miss the
   override only a TextView subclass defines. *)
let test_long_chain_reaches_fixpoint () =
  let n = 12 in
  let copies =
    String.concat " " (List.init n (fun i -> Printf.sprintf "x%d = x%d;" (n - i) (n - i - 1)))
  in
  let src =
    Printf.sprintf
      "class MyText extends TextView { method m(): void { } }\n\
       class MyButton extends Button { method m(): void { } }\n\
       class C { method go(): void { %s x0 = new TextView(); x%d = new Button(); x%d.m(); } }"
      copies n n
  in
  let env = env_of ~owner:"C" src "go" in
  for i = 0 to n do
    check_ty env (Printf.sprintf "x%d" i) (Some (Ast.Tclass "TextView"))
  done;
  let hierarchy = Hierarchy.create ~platform (Parser.parse_program src) in
  let owners =
    List.map fst
      (Hierarchy.cha_targets hierarchy ~recv_ty:(Typing.class_of env (Printf.sprintf "x%d" n))
         { Ast.mk_name = "m"; mk_arity = 0 })
  in
  Alcotest.check (Alcotest.list Alcotest.string) "CHA on x12 sees both overrides"
    [ "MyButton"; "MyText" ] (List.sort compare owners)

let test_lcs () =
  let hierarchy = Hierarchy.create ~platform (Parser.parse_program "class C { }") in
  let lcs = Typing.least_common_superclass hierarchy in
  Alcotest.check Alcotest.(option string) "same" (Some "Button") (lcs "Button" "Button");
  Alcotest.check Alcotest.(option string) "sub/super" (Some "TextView") (lcs "Button" "TextView");
  Alcotest.check Alcotest.(option string) "siblings" (Some "View") (lcs "Button" "ImageView");
  Alcotest.check Alcotest.(option string) "distant" (Some "Object") (lcs "Button" "Activity")

(* Extraction types methods through its per-run CHA memo; the memo
   must change no type.  Environments compare as sorted bindings. *)
let bindings env =
  List.sort compare (Hashtbl.fold (fun v ty acc -> (v, ty) :: acc) env [])

let same_envs name (app : Framework.App.t) =
  let direct =
    List.concat_map
      (fun (cls : Ast.cls) ->
        List.map (fun m -> Framework.App.typing_env app ~owner:cls.c_name m) cls.c_methods)
      app.program.p_classes
  in
  let shared = Gator.Extract.typing_envs app in
  Alcotest.check Alcotest.int (name ^ ": methods") (List.length direct) (List.length shared);
  List.iter2
    (fun env (mid, env') ->
      if bindings env <> bindings env' then
        Alcotest.failf "%s: %a typed differently through the shared CHA memo" name Gator.Node.pp_mid
          mid)
    direct shared

(* Call signatures whose return type turns on the receiver's type or on
   the arity, including a receiver typed only in a later round: a memo
   keyed too coarsely types these wrongly, which the corpus alone would
   not show. *)
let overloads_src =
  "class A { method get(): Button { x = new Button(); return x; }\n\
  \           method get(n: int): TextView { y = new TextView(); return y; } }\n\
   class B { method get(): ImageView { z = new ImageView(); return z; } }\n\
   class C { method go(): void { a = new A(); b = new B(); k = 1; p = a.get(); q = b.get();\n\
  \           r = a.get(k); u = w; t = u.get(); w = new B(); } }"

(* One (name, arity) called on an untyped receiver and on a typed one,
   in both orders, next to an overload by arity: the memo must key the
   receiver's absence apart from every receiver type, and keep the
   arity.  An untyped receiver resolves to every [get/0], and typing
   takes the first target's return: [A]'s [Button]. *)
let receivers_src =
  "class A { method get(): Button { x = new Button(); return x; }\n\
  \           method get(n: int): TextView { y = new TextView(); return y; } }\n\
   class B { method get(): ImageView { z = new ImageView(); return z; } }\n\
   class C { method typed_first(): void { b = new B(); q = b.get(); x = new A(); x = 3; p = x.get(); }\n\
  \           method untyped_first(): void { x = new A(); x = 3; p = x.get(); b = new B(); q = b.get();\n\
  \             a = new A(); k = 1; r = a.get(k); s = a.get(); } }"

let test_memo_keys () =
  match Framework.App.of_source ~name:"Receivers" ~code:receivers_src ~layouts:[] with
  | Error e -> Alcotest.failf "Receivers: %s" e
  | Ok app ->
      same_envs "Receivers" app;
      List.iter
        (fun ((mid : Gator.Node.mid), env) ->
          if mid.mid_cls = "C" then begin
            check_ty env "p" (Some (Ast.Tclass "Button"));
            check_ty env "q" (Some (Ast.Tclass "ImageView"))
          end;
          if mid.mid_name = "untyped_first" then begin
            check_ty env "r" (Some (Ast.Tclass "TextView"));
            check_ty env "s" (Some (Ast.Tclass "Button"))
          end)
        (Gator.Extract.typing_envs app)

let test_shared_cha_corpus () =
  List.iter
    (fun spec -> same_envs spec.Corpus.Spec.sp_name (Corpus.Apps.generate spec))
    Corpus.Apps.specs;
  same_envs "Figure1" (Corpus.Connectbot.app ());
  match Framework.App.of_source ~name:"Overloads" ~code:overloads_src ~layouts:[] with
  | Error e -> Alcotest.failf "Overloads: %s" e
  | Ok app ->
      same_envs "Overloads" app;
      let _, env =
        List.find
          (fun ((mid : Gator.Node.mid), _) -> mid.mid_name = "go")
          (Gator.Extract.typing_envs app)
      in
      check_ty env "p" (Some (Ast.Tclass "Button"));
      check_ty env "q" (Some (Ast.Tclass "ImageView"));
      check_ty env "r" (Some (Ast.Tclass "TextView"))

let qcheck_shared_cha_random =
  QCheck.Test.make ~count:40 ~name:"qcheck: shared CHA memo types random apps the same"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Util.Prng.create seed in
      let spec = Corpus.Gen.random_spec ~name:(Printf.sprintf "Typing_%d" seed) rng in
      same_envs spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec);
      true)

let suite =
  [
    Alcotest.test_case "this and params" `Quick test_this_and_params;
    Alcotest.test_case "new and cast" `Quick test_new_and_cast;
    Alcotest.test_case "resource reads are ints" `Quick test_resource_ints;
    Alcotest.test_case "copy chains" `Quick test_copy_chain;
    Alcotest.test_case "field reads" `Quick test_field_type;
    Alcotest.test_case "application call returns" `Quick test_app_call_return;
    Alcotest.test_case "platform call returns" `Quick test_external_return;
    Alcotest.test_case "join to least common superclass" `Quick test_join_to_lcs;
    Alcotest.test_case "conflicting defs stay unknown" `Quick test_conflict_is_unknown;
    Alcotest.test_case "declared types win" `Quick test_declared_wins;
    Alcotest.test_case "long copy chains reach the fixpoint" `Quick
      test_long_chain_reaches_fixpoint;
    Alcotest.test_case "least_common_superclass" `Quick test_lcs;
    Alcotest.test_case "shared CHA memo = direct CHA over the corpus" `Quick test_shared_cha_corpus;
    Alcotest.test_case "CHA memo keys receiver presence and arity" `Quick test_memo_keys;
    QCheck_alcotest.to_alcotest qcheck_shared_cha_random;
  ]
