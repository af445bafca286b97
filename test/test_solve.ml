(* End-to-end solver tests: the Figure 1 facts the paper narrates, plus
   targeted behaviors of each inference rule. *)
open Gator

let analyze ?config ?(layouts = []) code =
  match Framework.App.of_source ~name:"T" ~code ~layouts with
  | Ok app -> Analysis.analyze ?config app
  | Error e -> Alcotest.failf "analyze: %s" e

let views r cls meth arity v = Analysis.views_at r (Analysis.var ~cls ~meth ~arity v)

let view_classes views = List.sort compare (List.map Node.class_of_view views)

let check_classes msg expected actual =
  Alcotest.check (Alcotest.list Alcotest.string) msg (List.sort compare expected)
    (view_classes actual)

let test_connectbot_facts () =
  let r = Analysis.analyze (Corpus.Connectbot.app ()) in
  (* e sees both candidates (flow-insensitive), f is cast-filtered. *)
  check_classes "e" [ "TerminalView"; "ViewFlipper" ] (views r "ConsoleActivity" "onCreate" 0 "e");
  check_classes "f" [ "ViewFlipper" ] (views r "ConsoleActivity" "onCreate" 0 "f");
  check_classes "g" [ "ImageView" ] (views r "ConsoleActivity" "onCreate" 0 "g");
  check_classes "r param" [ "ImageView" ] (views r "EscapeButtonListener" "onClick" 1 "r");
  check_classes "v" [ "TerminalView" ] (views r "EscapeButtonListener" "onClick" 1 "v");
  (* the ESC button carries listener and id associations *)
  (match Analysis.views_with_id r "button_esc" with
  | [ esc ] ->
      Alcotest.check Alcotest.int "one click registration" 1
        (List.length (Analysis.listeners_of_view r esc))
  | other -> Alcotest.failf "expected one ESC view, got %d" (List.length other));
  Alcotest.check Alcotest.int "one interaction tuple" 1 (List.length (Analysis.interactions r))

let test_connectbot_narrated_facts_catalog () =
  (* the full checklist used by the figures driver must pass *)
  let output = Report.Experiments.figures () in
  Alcotest.check Alcotest.bool "no FAIL in figure facts" false
    (let contains s sub =
       let n = String.length sub in
       let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     contains output "FAIL")

let simple_layout = ("main", {|<LinearLayout android:id="@+id/root"><Button android:id="@+id/b" /></LinearLayout>|})

let test_set_content_and_find () =
  let r =
    analyze ~layouts:[ simple_layout ]
      {|class A extends Activity {
          method onCreate(): void {
            l = R.layout.main;
            this.setContentView(l);
            i = R.id.b;
            v = this.findViewById(i);
          } }|}
  in
  check_classes "find result" [ "Button" ] (views r "A" "onCreate" 0 "v");
  check_classes "activity root" [ "LinearLayout" ]
    (Analysis.roots_of_activity r "A")

let test_find_view_self () =
  (* findViewById returns the receiver itself when its id matches *)
  let r =
    analyze ~layouts:[ simple_layout ]
      {|class A extends Activity {
          method onCreate(): void {
            l = R.layout.main;
            this.setContentView(l);
            i = R.id.root;
            v = this.findViewById(i);
            w = v.findViewById(i);
          } }|}
  in
  check_classes "self lookup" [ "LinearLayout" ] (views r "A" "onCreate" 0 "w")

let test_set_id_affects_find () =
  let r =
    analyze ~layouts:[ simple_layout ]
      {|class A extends Activity {
          method onCreate(): void {
            l = R.layout.main; this.setContentView(l);
            w = new TextView();
            i = R.id.b;
            w.setId(i);
            r0 = R.id.root;
            c = this.findViewById(r0);
            c.addView(w);
            v = this.findViewById(i);
          } }|}
  in
  check_classes "find sees both button and retagged TextView" [ "Button"; "TextView" ]
    (views r "A" "onCreate" 0 "v")

let test_add_view_hierarchy () =
  let r =
    analyze ~layouts:[ simple_layout ]
      {|class A extends Activity {
          method onCreate(): void {
            l = R.layout.main; this.setContentView(l);
            p = new LinearLayout();
            c = new Button();
            p.addView(c);
            i = R.id.root;
            root = this.findViewById(i);
            root.addView(p);
          } }|}
  in
  match Analysis.roots_of_activity r "A" with
  | [ root ] ->
      (* root + its layout Button + programmatic LinearLayout + Button *)
      let all = Graph.descendants r.graph ~include_self:true root in
      Alcotest.check Alcotest.int "four views reachable" 4 (Graph.View_set.cardinal all)
  | _ -> Alcotest.fail "expected one root"

let test_set_content_view_arg () =
  let r =
    analyze
      {|class A extends Activity {
          method onCreate(): void {
            v = new LinearLayout();
            this.setContentView(v);
          } }|}
  in
  check_classes "programmatic root" [ "LinearLayout" ] (Analysis.roots_of_activity r "A")

let test_inflate_returns_root () =
  let r =
    analyze ~layouts:[ simple_layout ]
      {|class A extends Activity {
          method onCreate(): void {
            inf = this.getLayoutInflater();
            l = R.layout.main;
            k = inf.inflate(l);
          } }|}
  in
  check_classes "inflate result" [ "LinearLayout" ] (views r "A" "onCreate" 0 "k")

let test_inflate_with_parent_attaches () =
  let r =
    analyze ~layouts:[ simple_layout ]
      {|class A extends Activity {
          method onCreate(): void {
            c = new FrameLayout();
            inf = this.getLayoutInflater();
            l = R.layout.main;
            k = inf.inflate(l, c);
          } }|}
  in
  let c_views = views r "A" "onCreate" 0 "c" in
  match c_views with
  | [ container ] ->
      Alcotest.check Alcotest.int "root attached under container" 1
        (Graph.View_set.cardinal (Graph.children_of r.graph container))
  | _ -> Alcotest.fail "expected one container"

let test_get_parent () =
  let r =
    analyze
      {|class A extends Activity {
          method onCreate(): void {
            p = new LinearLayout();
            c = new Button();
            p.addView(c);
            q = c.getParent();
          } }|}
  in
  check_classes "parent" [ "LinearLayout" ] (views r "A" "onCreate" 0 "q")

let test_findone_refinement_toggle () =
  let code =
    {|class A extends Activity {
        method onCreate(): void {
          a = new ViewFlipper();
          b = new LinearLayout();
          c = new Button();
          a.addView(b);
          b.addView(c);
          v = a.getCurrentView();
        } }|}
  in
  let refined = analyze code in
  check_classes "children only" [ "LinearLayout" ] (views refined "A" "onCreate" 0 "v");
  let unrefined = analyze ~config:{ Config.default with findone_refinement = false } code in
  check_classes "all descendants" [ "Button"; "LinearLayout" ]
    (views unrefined "A" "onCreate" 0 "v")

let test_cast_filtering_toggle () =
  let code =
    {|class A extends Activity {
        field f: View;
        method onCreate(): void {
          x = new Button();
          this.f = x;
          y = new LinearLayout();
          this.f = y;
          u = this.f;
          w = (Button) u;
        } }|}
  in
  let filtered = analyze code in
  check_classes "filtered" [ "Button" ] (views filtered "A" "onCreate" 0 "w");
  let plain = analyze ~config:{ Config.default with cast_filtering = false } code in
  check_classes "unfiltered" [ "Button"; "LinearLayout" ] (views plain "A" "onCreate" 0 "w")

let test_listener_callback_flow () =
  let r =
    analyze
      {|class A extends Activity {
          method onCreate(): void {
            b = new Button();
            j = new L();
            b.setOnClickListener(j);
          } }
        class L implements OnClickListener {
          method onClick(v: View): void { w = v; } }|}
  in
  check_classes "view flows into handler" [ "Button" ] (views r "L" "onClick" 1 "v");
  (* and the listener object flows into the handler's this *)
  Alcotest.check Alcotest.bool "listener in this" true
    (List.exists
       (function Node.V_obj a -> a.a_cls = "L" | _ -> false)
       (Analysis.values_at r (Analysis.var ~cls:"L" ~meth:"onClick" ~arity:1 Jir.Ast.this_var)))

let test_activity_as_listener () =
  let r =
    analyze
      {|class A extends Activity implements OnClickListener {
          method onCreate(): void {
            b = new Button();
            b.setOnClickListener(this);
          }
          method onClick(v: View): void { } }|}
  in
  check_classes "view reaches handler" [ "Button" ] (views r "A" "onClick" 1 "v");
  match Analysis.interactions r with
  | [ ix ] -> (
      match ix.ix_listener with
      | Node.L_act "A" -> ()
      | _ -> Alcotest.fail "listener should be the activity itself")
  | _ ->
      (* the button is not attached to the activity's hierarchy, so no
         interaction tuple is required; accept zero *)
      ()

let dialog_code =
  {|class A extends Activity {
      method onCreate(): void { d = new MyDialog(); } }
    class MyDialog extends Dialog {
      method onCreate(): void {
        v = new Button();
        this.setContentView(v);
        i = R.id.whatever;
        w = this.findViewById(i);
        v.setId(i);
      } }|}

let test_dialog_modeling () =
  let code = dialog_code in
  let on = analyze code in
  check_classes "dialog content searched" [ "Button" ] (views on "MyDialog" "onCreate" 0 "w");
  let off = analyze ~config:{ Config.default with model_dialogs = false } code in
  check_classes "no dialog modeling: nothing flows" [] (views off "MyDialog" "onCreate" 0 "w")

let shared_helper_code =
  {|class A extends Activity {
      method onCreate(): void {
        i = R.id.k;
        x = new Button();
        x.setId(i);
        y = new TextView();
        y.setId(i);
        h = new Helper();
        r1 = h.deco(x, i);
        r2 = h.deco(y, i);
      } }
    class Helper {
      method deco(v: View, i: int): View {
        w = v.findViewById(i);
        return w;
      } }|}

let test_context_sensitivity_separates_callsites () =
  (* Context-insensitively the shared helper merges both receivers;
     with inlining each call site keeps its own flow (the paper's
     Section 5 remedy for the XBMC outlier). *)
  let insensitive = analyze shared_helper_code in
  let helper_v = views insensitive "Helper" "deco" 2 "v" in
  check_classes "insensitive: merged receivers" [ "Button"; "TextView" ] helper_v;
  check_classes "insensitive: merged results at r1" [ "Button"; "TextView" ]
    (views insensitive "A" "onCreate" 0 "r1");
  let sensitive = analyze ~config:{ Config.default with inline_depth = 1 } shared_helper_code in
  (* the call-site result r1 now only sees views found under x *)
  check_classes "sensitive: r1 narrows to x's lookup" [ "Button" ]
    (views sensitive "A" "onCreate" 0 "r1");
  check_classes "sensitive: r2 narrows to y's lookup" [ "TextView" ]
    (views sensitive "A" "onCreate" 0 "r2");
  let t2_insensitive = Metrics.table2 insensitive in
  let t2_sensitive = Metrics.table2 sensitive in
  Alcotest.check Alcotest.bool "receivers improve" true
    (Option.get t2_sensitive.t2_receivers < Option.get t2_insensitive.t2_receivers)

let test_context_sensitivity_same_population () =
  (* Table 1 populations are per-site and must not change under
     cloning. *)
  let spec = Option.get (Corpus.Apps.by_name "NotePad") in
  let app = Corpus.Gen.generate spec in
  let base = Metrics.table1 (Analysis.analyze app) in
  let inlined =
    Metrics.table1 (Analysis.analyze ~config:{ Config.default with inline_depth = 2 } app)
  in
  Alcotest.check Alcotest.int "findview sites" base.t1_findview_ops inlined.t1_findview_ops;
  Alcotest.check Alcotest.int "alloc sites" base.t1_views_allocated inlined.t1_views_allocated;
  Alcotest.check Alcotest.int "listener sites" base.t1_listeners inlined.t1_listeners

let test_context_sensitivity_recursion_safe () =
  let r =
    analyze ~config:{ Config.default with inline_depth = 3 }
      {|class A extends Activity {
          method onCreate(): void { v = new Button(); w = this.spin(v); }
          method spin(v: View): View { w = this.spin(v); return w; } }|}
  in
  Alcotest.check Alcotest.bool "terminates" true (r.stats.iterations >= 1)

let transitions_code =
  {|class A extends Activity {
      method onCreate(): void {
        b = new Button();
        this.setContentView(b);
        j = new Go();
        j.init(this);
        b.setOnClickListener(j);
      } }
    class B extends Activity { method onCreate(): void { } }
    class Go implements OnClickListener {
      field src: A;
      method init(a: A): void { this.src = a; }
      method onClick(v: View): void {
        s = this.src;
        t = new B();
        s.startActivity(t);
      } }|}

let test_activity_transitions () =
  let r = analyze transitions_code in
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "transition edge" [ ("A", "B") ] (Analysis.transitions r)

let test_transitions_dynamic_covered () =
  let app =
    match
      Framework.App.of_source ~name:"T" ~layouts:[]
        ~code:
          {|class A extends Activity {
              method onCreate(): void {
                t = new B();
                this.startActivity(t);
              } }
            class B extends Activity { method onCreate(): void { } }|}
    with
    | Ok app -> app
    | Error e -> Alcotest.fail e
  in
  let r = Analysis.analyze app in
  let outcome = Dynamic.Interp.run app in
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "dynamic transition" [ ("A", "B") ]
    (List.sort_uniq compare outcome.transitions);
  Alcotest.check Alcotest.bool "covered" true
    (Dynamic.Oracle.is_sound (Dynamic.Oracle.check r outcome))

let declarative_code =
  {|class A extends Activity {
      field hit: View;
      method onCreate(): void {
        l = R.layout.main;
        this.setContentView(l);
      }
      method submitClicked(v: View): void {
        this.hit = v;
      } }|}

let declarative_layouts =
  [ ("main", {|<LinearLayout><Button android:id="@+id/go" android:onClick="submitClicked" /></LinearLayout>|}) ]

let test_declarative_onclick () =
  let r = analyze ~layouts:declarative_layouts declarative_code in
  (* the button flows into the declared handler's parameter *)
  check_classes "handler param" [ "Button" ] (views r "A" "submitClicked" 1 "v");
  (* and the interaction tuple is derived with the activity as listener *)
  match Analysis.interactions r with
  | [ ix ] ->
      Alcotest.check Alcotest.string "handler" "submitClicked" ix.ix_handler.mid_name;
      Alcotest.check Alcotest.bool "activity is the listener" true (ix.ix_listener = Gator.Node.L_act "A")
  | other -> Alcotest.failf "expected one tuple, got %d" (List.length other)

let test_declarative_onclick_dynamic () =
  let app =
    match
      Framework.App.of_source ~name:"T" ~code:declarative_code ~layouts:declarative_layouts
    with
    | Ok app -> app
    | Error e -> Alcotest.fail e
  in
  let r = Analysis.analyze app in
  let outcome = Dynamic.Interp.run app in
  Alcotest.check Alcotest.bool "covered" true
    (Dynamic.Oracle.is_sound (Dynamic.Oracle.check r outcome));
  Alcotest.check Alcotest.bool "handler fired" true
    (List.exists
       (fun (f : Dynamic.Interp.firing) -> f.f_handler.mid_name = "submitClicked")
       outcome.firings)

let adapter_code =
  {|class A extends Activity {
      method onCreate(): void {
        l = R.layout.screen;
        this.setContentView(l);
        i = R.id.list;
        v0 = this.findViewById(i);
        lv = (ListView) v0;
        ad = new RowAdapter();
        lv.setAdapter(ad);
        j = new RowClick();
        lv.setOnItemClickListener(j);
      } }
    class RowAdapter extends BaseAdapter {
      method getView(pos: int, convert: View, parent: ViewGroup): View {
        inf = parent.getLayoutInflater();
        l = R.layout.row;
        w = inf.inflate(l);
        return w;
      } }
    class RowClick implements OnItemClickListener {
      method onItemClick(p: View, item: View, pos: int, rid: int): void { } }|}

let adapter_layouts =
  [
    ("screen", {|<LinearLayout><ListView android:id="@+id/list" /></LinearLayout>|});
    ("row", {|<LinearLayout><TextView android:id="@+id/row_text" /></LinearLayout>|});
  ]

let test_adapter_item_views () =
  let r = analyze ~layouts:adapter_layouts adapter_code in
  (* getView's parent parameter receives the list view *)
  check_classes "parent param" [ "ListView" ] (views r "RowAdapter" "getView" 3 "parent");
  (* the inflated row became a child of the list *)
  (match views r "A" "onCreate" 0 "lv" with
  | [ lv ] ->
      let children = Gator.Graph.children_of r.graph lv in
      Alcotest.check Alcotest.int "one row child" 1 (Gator.Graph.View_set.cardinal children)
  | _ -> Alcotest.fail "expected one list view");
  (* item-click handler: param 0 = the list, param 1 = the row *)
  check_classes "handler parent param" [ "ListView" ] (views r "RowClick" "onItemClick" 4 "p");
  check_classes "handler item param" [ "LinearLayout" ] (views r "RowClick" "onItemClick" 4 "item")

let test_adapter_dynamic_covered () =
  let app =
    match Framework.App.of_source ~name:"T" ~code:adapter_code ~layouts:adapter_layouts with
    | Ok app -> app
    | Error e -> Alcotest.fail e
  in
  let r = Analysis.analyze app in
  let outcome = Dynamic.Interp.run app in
  Alcotest.check Alcotest.bool "covered" true
    (Dynamic.Oracle.is_sound (Dynamic.Oracle.check r outcome));
  (* the item-click actually fired with a concrete row *)
  Alcotest.check Alcotest.bool "item-click fired" true
    (List.exists
       (fun (f : Dynamic.Interp.firing) -> f.f_event = Framework.Listeners.Item_click)
       outcome.firings)

let menu_code =
  {|class A extends Activity {
      field last: MenuItem;
      method onCreate(): void { }
      method onCreateOptionsMenu(menu: Menu): void {
        t = 1;
        save = menu.add(t);
        g = 0;
        o = 0;
        iid = R.id.action_delete;
        del = menu.add(g, iid, o, t);
      }
      method onOptionsItemSelected(item: MenuItem): void {
        this.last = item;
        m = item.getParent();
        i = R.id.action_delete;
        d = m.findItem(i);
      } }|}

let test_options_menu () =
  let r = analyze menu_code in
  (* onCreateOptionsMenu receives the implicit menu *)
  check_classes "menu param" [ "Menu" ] (views r "A" "onCreateOptionsMenu" 1 "menu");
  (* both added items flow into the selection callback *)
  check_classes "selected item" [ "MenuItem"; "MenuItem" ]
    (views r "A" "onOptionsItemSelected" 1 "item");
  (* findItem resolves by item id to the id-carrying item only *)
  (match views r "A" "onOptionsItemSelected" 1 "d" with
  | [ Gator.Node.V_alloc a ] -> Alcotest.check Alcotest.string "one item" "MenuItem" a.a_cls
  | other -> Alcotest.failf "expected one MenuItem, got %d views" (List.length other));
  (* getParent on the item recovers the menu *)
  check_classes "item's parent menu" [ "Menu" ] (views r "A" "onOptionsItemSelected" 1 "m");
  (* the batch id lookup sees the item Menu.add gave the id *)
  check_classes "views with the item id" [ "MenuItem" ] (Analysis.views_with_id r "action_delete")

let test_options_menu_dynamic () =
  let app =
    match Framework.App.of_source ~name:"T" ~code:menu_code ~layouts:[] with
    | Ok app -> app
    | Error e -> Alcotest.fail e
  in
  let r = Analysis.analyze app in
  let outcome = Dynamic.Interp.run app in
  Alcotest.check Alcotest.bool "covered" true
    (Dynamic.Oracle.is_sound (Dynamic.Oracle.check r outcome));
  (* the selection callback actually ran and stored an item *)
  let activity =
    List.find
      (fun (o : Dynamic.Heap.obj) -> o.provenance = Dynamic.Heap.P_activity "A")
      (Dynamic.Heap.objects outcome.heap)
  in
  Alcotest.check Alcotest.bool "item selected dynamically" true
    (Dynamic.Heap.read_field activity "last" <> Dynamic.Heap.V_null)

let fragment_code =
  {|class A extends Activity {
      method onCreate(): void {
        l = R.layout.screen;
        this.setContentView(l);
        fm = this.getFragmentManager();
        ft = fm.beginTransaction();
        f = new TermFragment();
        cid = R.id.container;
        ft.add(cid, f);
        i = R.id.frag_text;
        v = this.findViewById(i);
      } }
    class TermFragment extends Fragment {
      method onCreateView(): View {
        inf = this.getLayoutInflater();
        l = R.layout.frag;
        w = inf.inflate(l);
        return w;
      } }|}

let fragment_layouts =
  [
    ("screen", {|<LinearLayout><FrameLayout android:id="@+id/container" /></LinearLayout>|});
    ("frag", {|<LinearLayout><TextView android:id="@+id/frag_text" /></LinearLayout>|});
  ]

let test_fragment_view_attachment () =
  let r = analyze ~layouts:fragment_layouts fragment_code in
  (* the fragment's inflated TextView is found through the activity's
     hierarchy, across the FragmentTransaction chain *)
  check_classes "find reaches fragment content" [ "TextView" ] (views r "A" "onCreate" 0 "v")

let test_fragment_dynamic_covered () =
  let app =
    match Framework.App.of_source ~name:"T" ~code:fragment_code ~layouts:fragment_layouts with
    | Ok app -> app
    | Error e -> Alcotest.fail e
  in
  let r = Analysis.analyze app in
  let outcome = Dynamic.Interp.run app in
  (* dynamically the find succeeds too, and is covered *)
  Alcotest.check Alcotest.bool "covered" true
    (Dynamic.Oracle.is_sound (Dynamic.Oracle.check r outcome));
  Alcotest.check Alcotest.bool "dynamic found the fragment view" true
    (List.exists
       (fun (ob : Dynamic.Interp.observation) ->
         ob.ob_op.o_kind = Framework.Api.Find_view
         && ob.ob_role = Dynamic.Interp.R_result
         &&
         match ob.ob_value with
         | Gator.Node.V_view v -> Gator.Node.class_of_view v = "TextView"
         | _ -> false)
       outcome.observations)

let declared_fragment_code =
  {|class A extends Activity {
      method onCreate(): void {
        l = R.layout.screen;
        this.setContentView(l);
        i = R.id.status_text;
        v = this.findViewById(i);
      } }
    class StatusFragment extends Fragment {
      method onCreateView(): View {
        inf = this.getLayoutInflater();
        l = R.layout.status;
        w = inf.inflate(l);
        return w;
      } }|}

let declared_fragment_layouts =
  [
    ("screen", {|<LinearLayout><fragment android:name="StatusFragment" android:id="@+id/slot" /></LinearLayout>|});
    ("status", {|<TextView android:id="@+id/status_text" />|});
  ]

let test_declared_fragment () =
  let r = analyze ~layouts:declared_fragment_layouts declared_fragment_code in
  (* the fragment's TextView is reachable through the activity's
     hierarchy via the <fragment> placeholder *)
  check_classes "find through declared fragment" [ "TextView" ] (views r "A" "onCreate" 0 "v")

let test_declared_fragment_dynamic () =
  let app =
    match
      Framework.App.of_source ~name:"T" ~code:declared_fragment_code
        ~layouts:declared_fragment_layouts
    with
    | Ok app -> app
    | Error e -> Alcotest.fail e
  in
  let r = Analysis.analyze app in
  let outcome = Dynamic.Interp.run app in
  Alcotest.check Alcotest.bool "covered" true
    (Dynamic.Oracle.is_sound (Dynamic.Oracle.check r outcome));
  Alcotest.check Alcotest.bool "fragment view found dynamically" true
    (List.exists
       (fun (ob : Dynamic.Interp.observation) ->
         ob.ob_role = Dynamic.Interp.R_result
         &&
         match ob.ob_value with
         | Gator.Node.V_view v -> Gator.Node.class_of_view v = "TextView"
         | _ -> false)
       outcome.observations)

let test_include_layout_end_to_end () =
  let r =
    analyze
      ~layouts:
        [
          ("toolbar", {|<LinearLayout android:id="@+id/bar"><Button android:id="@+id/back" /></LinearLayout>|});
          ("screen", {|<FrameLayout><include layout="@layout/toolbar" /><TextView android:id="@+id/body" /></FrameLayout>|});
        ]
      {|class A extends Activity {
          method onCreate(): void {
            l = R.layout.screen;
            this.setContentView(l);
            i = R.id.back;
            v = this.findViewById(i);
          } }|}
  in
  (* the Button lives in the included layout but is found through the
     including screen's hierarchy *)
  check_classes "find through include" [ "Button" ] (views r "A" "onCreate" 0 "v")

let test_idempotent_reanalysis () =
  let app = Corpus.Connectbot.app () in
  let a = Analysis.analyze app in
  let b = Analysis.analyze app in
  Alcotest.check Alcotest.int "same op count" (List.length (Analysis.ops a))
    (List.length (Analysis.ops b));
  let key (op : Graph.op) = op.site in
  List.iter2
    (fun oa ob ->
      Alcotest.check Alcotest.bool "same sites" true (key oa = key ob);
      Alcotest.check Alcotest.int "same receiver sets"
        (List.length (Analysis.op_receiver_views a oa))
        (List.length (Analysis.op_receiver_views b ob)))
    (Analysis.ops a) (Analysis.ops b)

let test_resolve_through_fields_interprocedural () =
  let r =
    analyze ~layouts:[ simple_layout ]
      {|class A extends Activity {
          field stash: View;
          method onCreate(): void {
            l = R.layout.main; this.setContentView(l);
            i = R.id.b;
            v = this.findViewById(i);
            this.stash = v;
            this.use();
          }
          method use(): void {
            u = this.stash;
            j = new L();
            u.setOnClickListener(j);
          } }
        class L implements OnClickListener { method onClick(v: View): void { } }|}
  in
  check_classes "handler param via field + call" [ "Button" ] (views r "L" "onClick" 1 "v")

let suite =
  [
    Alcotest.test_case "Figure 1 facts" `Quick test_connectbot_facts;
    Alcotest.test_case "Figure 1 catalog (figures driver)" `Quick test_connectbot_narrated_facts_catalog;
    Alcotest.test_case "setContentView + findViewById" `Quick test_set_content_and_find;
    Alcotest.test_case "findViewById can return the receiver" `Quick test_find_view_self;
    Alcotest.test_case "setId feeds find-view (SETID rule)" `Quick test_set_id_affects_find;
    Alcotest.test_case "addView builds hierarchy (ADDVIEW2)" `Quick test_add_view_hierarchy;
    Alcotest.test_case "setContentView(View) (ADDVIEW1)" `Quick test_set_content_view_arg;
    Alcotest.test_case "inflate returns root (INFLATE1)" `Quick test_inflate_returns_root;
    Alcotest.test_case "inflate(id, parent) attaches" `Quick test_inflate_with_parent_attaches;
    Alcotest.test_case "getParent" `Quick test_get_parent;
    Alcotest.test_case "FindOne refinement toggle" `Quick test_findone_refinement_toggle;
    Alcotest.test_case "cast filtering toggle" `Quick test_cast_filtering_toggle;
    Alcotest.test_case "SETLISTENER callback flow" `Quick test_listener_callback_flow;
    Alcotest.test_case "activity as its own listener" `Quick test_activity_as_listener;
    Alcotest.test_case "dialog modeling toggle" `Quick test_dialog_modeling;
    Alcotest.test_case "declarative android:onClick" `Quick test_declarative_onclick;
    Alcotest.test_case "declarative onClick covered dynamically" `Quick
      test_declarative_onclick_dynamic;
    Alcotest.test_case "adapter item views" `Quick test_adapter_item_views;
    Alcotest.test_case "adapter covered dynamically" `Quick test_adapter_dynamic_covered;
    Alcotest.test_case "options menu modeling" `Quick test_options_menu;
    Alcotest.test_case "options menu covered dynamically" `Quick test_options_menu_dynamic;
    Alcotest.test_case "fragment view attachment" `Quick test_fragment_view_attachment;
    Alcotest.test_case "declared <fragment> tags" `Quick test_declared_fragment;
    Alcotest.test_case "declared fragments covered dynamically" `Quick test_declared_fragment_dynamic;
    Alcotest.test_case "fragments covered dynamically" `Quick test_fragment_dynamic_covered;
    Alcotest.test_case "activity transitions via handler" `Quick test_activity_transitions;
    Alcotest.test_case "transitions covered dynamically" `Quick test_transitions_dynamic_covered;
    Alcotest.test_case "include layouts end to end" `Quick test_include_layout_end_to_end;
    Alcotest.test_case "context sensitivity separates call sites" `Quick
      test_context_sensitivity_separates_callsites;
    Alcotest.test_case "context sensitivity keeps Table 1 populations" `Quick
      test_context_sensitivity_same_population;
    Alcotest.test_case "context sensitivity bounded on recursion" `Quick
      test_context_sensitivity_recursion_safe;
    Alcotest.test_case "re-analysis is deterministic" `Quick test_idempotent_reanalysis;
    Alcotest.test_case "interprocedural flow through fields" `Quick test_resolve_through_fields_interprocedural;
  ]
