(* Cross-cutting smaller behaviors not covered by the focused suites. *)

let app_of ?(layouts = []) code =
  match Framework.App.of_source ~name:"T" ~code ~layouts with
  | Ok app -> app
  | Error e -> Alcotest.failf "app_of: %s" e

(* ---------------- interpreter options ---------------- *)

let listener_app () =
  app_of
    {|class A extends Activity {
        method onCreate(): void {
          b = new Button();
          this.setContentView(b);
          j = new L();
          b.setOnClickListener(j);
        } }
      class L implements OnClickListener { method onClick(v: View): void { } }|}

let test_zero_event_rounds () =
  let options = { Dynamic.Interp.default_options with event_rounds = 0 } in
  let outcome = Dynamic.Interp.run ~options (listener_app ()) in
  Alcotest.check Alcotest.int "no firings" 0 (List.length outcome.firings);
  Alcotest.check Alcotest.int "registration still happened" 1 (List.length outcome.registrations)

let test_more_rounds_fire_more () =
  let run n =
    let options = { Dynamic.Interp.default_options with event_rounds = n } in
    List.length (Dynamic.Interp.run ~options (listener_app ())).firings
  in
  Alcotest.check Alcotest.int "1 round" 1 (run 1);
  Alcotest.check Alcotest.int "4 rounds" 4 (run 4)

let test_depth_zero_truncates_calls () =
  let options = { Dynamic.Interp.default_options with max_depth = 0 } in
  let outcome =
    Dynamic.Interp.run ~options
      (app_of
         {|class A extends Activity {
             method onCreate(): void { this.helper(); }
             method helper(): void { b = new Button(); i = 5; b.setId(i); } }|})
  in
  Alcotest.check Alcotest.bool "nested call truncated" true outcome.truncated

(* ---------------- dialog interactions ---------------- *)

let test_dialog_interaction_tuple () =
  let app =
    app_of
      {|class A extends Activity { method onCreate(): void { d = new D(); } }
        class D extends Dialog {
          method onCreate(): void {
            b = new Button();
            this.setContentView(b);
            j = new L();
            b.setOnClickListener(j);
          } }
        class L implements OnClickListener { method onClick(v: View): void { } }|}
  in
  let r = Gator.Analysis.analyze app in
  match Gator.Analysis.interactions r with
  | [ ix ] ->
      Alcotest.check Alcotest.string "labeled by dialog class" "D" ix.ix_activity;
      (* and the dynamic firing of it is covered *)
      let outcome = Dynamic.Interp.run app in
      Alcotest.check Alcotest.bool "covered" true
        (Dynamic.Oracle.is_sound (Dynamic.Oracle.check r outcome));
      Alcotest.check Alcotest.bool "dialog firing attributed" true
        (List.exists
           (fun (f : Dynamic.Interp.firing) -> List.mem "D" f.f_activities)
           outcome.firings)
  | other -> Alcotest.failf "expected one tuple, got %d" (List.length other)

(* ---------------- hierarchy/typing corners ---------------- *)

let test_field_shadowing () =
  let h =
    Framework.Api.hierarchy
      (Jir.Parser.parse_program
         "class A { field f: View; } class B extends A { field f: Button; }")
  in
  Alcotest.check Alcotest.bool "subclass field wins" true
    (Jir.Hierarchy.field_ty h "B" "f" = Some (Jir.Ast.Tclass "Button"));
  Alcotest.check Alcotest.bool "superclass unaffected" true
    (Jir.Hierarchy.field_ty h "A" "f" = Some (Jir.Ast.Tclass "View"))

let test_fragment_manager_typing () =
  let program =
    Jir.Parser.parse_program
      "class A extends Activity { method m(): void { fm = this.getFragmentManager(); ft = fm.beginTransaction(); } }"
  in
  let h = Framework.Api.hierarchy program in
  let cls = Option.get (Jir.Ast.find_class program "A") in
  let m = List.hd cls.c_methods in
  let env = Jir.Typing.infer ~hierarchy:h ~external_return:Framework.Api.return_ty ~owner:"A" m in
  Alcotest.check Alcotest.(option string) "fm" (Some "FragmentManager") (Jir.Typing.class_of env "fm");
  Alcotest.check Alcotest.(option string) "ft" (Some "FragmentTransaction")
    (Jir.Typing.class_of env "ft")

(* ---------------- analysis misc ---------------- *)

let test_flows_to () =
  let app =
    app_of "class A extends Activity { method onCreate(): void { x = new Button(); y = x; } }"
  in
  let r = Gator.Analysis.analyze app in
  let y = Gator.Analysis.var ~cls:"A" ~meth:"onCreate" ~arity:0 "y" in
  match Gator.Analysis.values_at r y with
  | [ value ] ->
      Alcotest.check Alcotest.bool "flows_to" true (Gator.Analysis.flows_to r value y);
      Alcotest.check Alcotest.bool "not elsewhere" false
        (Gator.Analysis.flows_to r value
           (Gator.Analysis.var ~cls:"A" ~meth:"onCreate" ~arity:0 "zzz"))
  | _ -> Alcotest.fail "expected one value"

let test_ops_of_kind () =
  let r = Gator.Analysis.analyze (Corpus.Connectbot.app ()) in
  let finds =
    Gator.Analysis.ops_of_kind r (function Framework.Api.Find_view -> true | _ -> false)
  in
  Alcotest.check Alcotest.int "three findViewById ops" 3 (List.length finds)

let test_pp_smoke () =
  let r = Gator.Analysis.analyze (Corpus.Connectbot.app ()) in
  let text = Fmt.str "%a" Gator.Analysis.pp_summary r in
  Alcotest.check Alcotest.bool "summary mentions app" true (String.length text > 20);
  List.iter
    (fun (op : Gator.Graph.op) ->
      let s = Fmt.str "%a" Gator.Node.pp_op_site op.site in
      Alcotest.check Alcotest.bool "op site printable" true (String.length s > 0))
    (Gator.Analysis.ops r)

(* ---------------- table alignment ---------------- *)

let test_table_aligns () =
  let out =
    Report.Table.render
      ~aligns:[ Report.Table.Left; Report.Table.Left ]
      ~header:[ "a"; "b" ]
      [ [ "x"; "yyy" ]; [ "xx"; "y" ] ]
  in
  Alcotest.check Alcotest.bool "left-aligned" true (String.length out > 0)

let suite =
  [
    Alcotest.test_case "zero event rounds" `Quick test_zero_event_rounds;
    Alcotest.test_case "firings scale with rounds" `Quick test_more_rounds_fire_more;
    Alcotest.test_case "depth zero truncates" `Quick test_depth_zero_truncates_calls;
    Alcotest.test_case "dialog interaction tuples" `Quick test_dialog_interaction_tuple;
    Alcotest.test_case "field shadowing" `Quick test_field_shadowing;
    Alcotest.test_case "fragment manager typing" `Quick test_fragment_manager_typing;
    Alcotest.test_case "flows_to" `Quick test_flows_to;
    Alcotest.test_case "ops_of_kind" `Quick test_ops_of_kind;
    Alcotest.test_case "pretty-printer smoke" `Quick test_pp_smoke;
    Alcotest.test_case "table custom alignment" `Quick test_table_aligns;
  ]
