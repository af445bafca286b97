type corpus_run = {
  cr_spec : Corpus.Spec.t;
  cr_analysis : Gator.Analysis.t;
  cr_table1 : Gator.Metrics.table1_row;
  cr_table2 : Gator.Metrics.table2_row;
}

type corpus_result = {
  cs_spec : Corpus.Spec.t;
  cs_seconds : float;
  cs_run : (corpus_run, string) result;
}

(* One batch task: generate, analyze, measure.  The app is built
   inside the task so no mutable structure (hierarchy caches, layout
   packages, graphs) is shared across worker domains.  [fail_apps]
   names apps that crash on purpose. *)
let run_one config fail_apps spec =
  if List.mem spec.Corpus.Spec.sp_name fail_apps then
    failwith ("injected failure in " ^ spec.Corpus.Spec.sp_name);
  let app = Corpus.Gen.generate spec in
  let analysis = Gator.Analysis.analyze ~config app in
  {
    cr_spec = spec;
    cr_analysis = analysis;
    cr_table1 = Gator.Metrics.table1 analysis;
    cr_table2 = Gator.Metrics.table2 analysis;
  }

let result_of_outcome spec (outcome : _ Pool.outcome) =
  {
    cs_spec = spec;
    cs_seconds = outcome.Pool.oc_seconds;
    cs_run = Result.map_error (fun e -> e.Pool.err_exn) outcome.Pool.oc_result;
  }

let run_specs ?(config = Gator.Config.default) ?(jobs = Pool.default_jobs ()) ?(fail_apps = [])
    specs =
  List.map2 result_of_outcome specs (Pool.map ~jobs (run_one config fail_apps) specs)

let run_corpus ?config ?jobs ?fail_apps () = run_specs ?config ?jobs ?fail_apps Corpus.Apps.specs

(* One JSONL row per app: the Table 1 populations and Table 2 averages
   for a success, [ok:false] plus the captured exception for a
   failure.  With [~timings:false] the row is a pure function of the
   analysis solution, so streaming and batch runs of the same spec
   compare byte-for-byte. *)
let jsonl_row ?(timings = true) result =
  let module J = Util.Json in
  let jopt = function None -> J.Null | Some f -> J.Float f in
  let fields =
    match result.cs_run with
    | Error err ->
        [
          ("app", J.String result.cs_spec.Corpus.Spec.sp_name);
          ("ok", J.Bool false);
          ("error", J.String ("FAILED: " ^ err));
        ]
    | Ok run ->
        let t1 = run.cr_table1 and t2 = run.cr_table2 in
        [
          ("app", J.String t1.Gator.Metrics.t1_app);
          ("ok", J.Bool true);
          ("classes", J.Int t1.t1_classes);
          ("methods", J.Int t1.t1_methods);
          ("layout_ids", J.Int t1.t1_layout_ids);
          ("view_ids", J.Int t1.t1_view_ids);
          ("views_inflated", J.Int t1.t1_views_inflated);
          ("views_allocated", J.Int t1.t1_views_allocated);
          ("listeners", J.Int t1.t1_listeners);
          ("inflate_ops", J.Int t1.t1_inflate_ops);
          ("findview_ops", J.Int t1.t1_findview_ops);
          ("addview_ops", J.Int t1.t1_addview_ops);
          ("setid_ops", J.Int t1.t1_setid_ops);
          ("setlistener_ops", J.Int t1.t1_setlistener_ops);
          ("receivers", jopt t2.Gator.Metrics.t2_receivers);
          ("parameters", jopt t2.t2_parameters);
          ("results", jopt t2.t2_results);
          ("listeners_avg", jopt t2.t2_listeners);
        ]
  in
  let fields = if timings then fields @ [ ("seconds", J.Float result.cs_seconds) ] else fields in
  J.to_string (J.Obj fields)

(* Streaming ingestion: [apps] generated specs pulled on demand,
   analyzed across [jobs] domains behind {!Pool.Stream}'s watermark
   gate, each row emitted the moment its task completes.  Nothing is
   retained per app beyond its JSONL line, so the stream's footprint
   is bounded by the gate, not the corpus size. *)
let run_stream ?(jobs = Pool.default_jobs ()) ?high ?low ?(timings = true) ?(fail_apps = [])
    ?(seed = 42) ~apps ~emit () =
  Pool.Stream.run ~jobs ?high ?low
    ~produce:(fun i -> if i < apps then Some (Corpus.Gen.stream_spec ~seed i) else None)
    ~work:(run_one Gator.Config.default fail_apps)
    ~consume:(fun _i spec outcome -> emit (jsonl_row ~timings (result_of_outcome spec outcome)))
    ()

(* A failed app still occupies its row: name, the captured exception,
   dashes for the metric columns the task never produced. *)
let failed_row ~columns name err =
  name :: ("FAILED: " ^ err) :: List.init (columns - 2) (fun _ -> "-")

let table1 results =
  let header =
    [
      "App"; "classes"; "methods"; "ids L/V"; "views I/A"; "listeners"; "Inflate"; "FindView";
      "AddView"; "SetId"; "SetListener";
    ]
  in
  let rows =
    List.map
      (fun result ->
        match result.cs_run with
        | Error err -> failed_row ~columns:(List.length header) result.cs_spec.Corpus.Spec.sp_name err
        | Ok run ->
            let t = run.cr_table1 in
            [
              t.t1_app;
              Table.cell_int t.t1_classes;
              Table.cell_int t.t1_methods;
              Printf.sprintf "%d/%d" t.t1_layout_ids t.t1_view_ids;
              Printf.sprintf "%d/%d" t.t1_views_inflated t.t1_views_allocated;
              Table.cell_int t.t1_listeners;
              Table.cell_int t.t1_inflate_ops;
              Table.cell_int t.t1_findview_ops;
              Table.cell_int t.t1_addview_ops;
              Table.cell_int t.t1_setid_ops;
              Table.cell_int t.t1_setlistener_ops;
            ])
      results
  in
  "Table 1: analyzed applications and relevant constraint graph nodes\n"
  ^ Table.render ~header rows

let table2 ?(timings = true) results =
  let header =
    [
      "App"; "time(s)"; "paper(s)"; "receivers"; "paper"; "parameters"; "results"; "listeners";
    ]
  in
  let rows =
    List.map
      (fun result ->
        match result.cs_run with
        | Error err -> failed_row ~columns:(List.length header) result.cs_spec.Corpus.Spec.sp_name err
        | Ok run ->
            let t = run.cr_table2 in
            let paper = Paper.table2 t.t2_app in
            [
              t.t2_app;
              (* timings are inherently nondeterministic; tests that
                 compare reports byte-for-byte suppress them *)
              (if timings then Table.cell_seconds t.t2_seconds else "-");
              (match paper with Some p -> Table.cell_seconds p.p2_seconds | None -> "-");
              Table.cell_float t.t2_receivers;
              (match paper with Some p -> Printf.sprintf "%.2f" p.p2_receivers | None -> "-");
              Table.cell_float t.t2_parameters;
              Table.cell_float t.t2_results;
              Table.cell_float t.t2_listeners;
            ])
      results
  in
  "Table 2: analysis running time and average solution sizes\n"
  ^ Table.render ~header rows
  ^ "\n(paper columns: values published in the paper; \"-\" where the paper reports no such ops)"

let solver_stats results =
  let header =
    [
      "App"; "mode"; "ops"; "rounds"; "op applies"; "naive equiv"; "saved";
      "propagations"; "delta pushes"; "desc cache"; "values"; "set words"; "unions"; "sccs";
      "max scc"; "ctxs"; "ctx keys";
    ]
  in
  let rows =
    List.map
      (fun result ->
        match result.cs_run with
        | Error err -> failed_row ~columns:(List.length header) result.cs_spec.Corpus.Spec.sp_name err
        | Ok run ->
            let s = Gator.Metrics.solver_stats run.cr_analysis in
            let saved =
              if s.sv_naive_equivalent = 0 then "-"
              else
                Printf.sprintf "%.1fx"
                  (float_of_int s.sv_naive_equivalent
                  /. float_of_int (max 1 s.sv_op_applications))
            in
            let mode =
              match s.sv_fallback with
              | Some _ -> "fallback"
              | None ->
                  if s.sv_warm then
                    Printf.sprintf "warm %d/%d" s.sv_dirty_comps s.sv_reused_comps
                  else "-"
            in
            [
              s.sv_app;
              mode;
              Table.cell_int s.sv_ops;
              Table.cell_int s.sv_iterations;
              Table.cell_int s.sv_op_applications;
              Table.cell_int s.sv_naive_equivalent;
              saved;
              Table.cell_int s.sv_propagations;
              Table.cell_int s.sv_delta_pushes;
              Printf.sprintf "%d/%d" s.sv_desc_hits (s.sv_desc_hits + s.sv_desc_misses);
              (if s.sv_interned_values = 0 then "-" else Table.cell_int s.sv_interned_values);
              (if s.sv_bitset_words = 0 then "-" else Table.cell_int s.sv_bitset_words);
              (if s.sv_union_calls = 0 then "-" else Table.cell_int s.sv_union_calls);
              (if s.sv_scc_count = 0 then "-" else Table.cell_int s.sv_scc_count);
              (if s.sv_scc_count = 0 then "-" else Table.cell_int s.sv_largest_scc);
              (if s.sv_ctx_count = 0 then "-" else Table.cell_int s.sv_ctx_count);
              (if s.sv_ctx_keys = 0 then "-" else Table.cell_int s.sv_ctx_keys);
            ])
      results
  in
  "Solver work: delta scheduling vs naive re-iteration (naive equiv = rounds * |ops|; mode: \
   warm dirty/reused components for incremental solves, \"-\" for cold)\n"
  ^ Table.render ~header rows

let case_study () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Case study (Section 5): static solution vs dynamic oracle (perfectly-precise prefix)\n";
  let header =
    [ "App"; "static recv"; "dynamic recv"; "static res"; "dynamic res"; "coverage"; "sound" ]
  in
  let rows =
    List.map
      (fun name ->
        let spec = Option.get (Corpus.Apps.by_name name) in
        let app = Corpus.Gen.generate spec in
        let analysis = Gator.Analysis.analyze app in
        let t2 = Gator.Metrics.table2 analysis in
        let outcome = Dynamic.Interp.run app in
        let dyn = Dynamic.Oracle.dynamic_averages outcome in
        let coverage = Dynamic.Oracle.check analysis outcome in
        [
          name;
          Table.cell_float t2.t2_receivers;
          Table.cell_float dyn.dyn_receivers;
          Table.cell_float t2.t2_results;
          Table.cell_float dyn.dyn_results;
          Printf.sprintf "%d/%d" coverage.cov_covered coverage.cov_total;
          (if Dynamic.Oracle.is_sound coverage then "yes" else "NO");
        ])
      Corpus.Apps.case_study_names
  in
  Buffer.add_string buf (Table.render ~header rows);
  Buffer.add_string buf
    (Printf.sprintf
       "\n\npaper: APV/BarcodeScanner/SuperGenPass perfectly precise; XBMC perfect receivers %.2f, \
        results %.2f (vs static 8.81 / 1.80+)\n"
       Paper.xbmc_perfect_receivers Paper.xbmc_perfect_results);
  Buffer.contents buf

let connectbot_facts r =
  let facts = ref [] in
  let fact name ok = facts := (name, ok) :: !facts in
  let views_at cls meth arity v = Gator.Analysis.views_at r (Gator.Analysis.var ~cls ~meth ~arity v) in
  let has_infl layout cls views =
    List.exists
      (fun view ->
        match view with
        | Gator.Node.V_infl i -> i.v_layout = layout && i.v_cls = cls
        | Gator.Node.V_alloc _ -> false)
      views
  in
  let has_alloc cls views =
    List.exists
      (fun view ->
        match view with Gator.Node.V_alloc a -> a.a_cls = cls | Gator.Node.V_infl _ -> false)
      views
  in
  fact "activity root is the inflated act_console RelativeLayout"
    (has_infl "act_console" "RelativeLayout" (Gator.Analysis.roots_of_activity r "ConsoleActivity"));
  fact "g in onCreate resolves precisely to the ESC ImageView"
    (match views_at "ConsoleActivity" "onCreate" 0 "g" with
    | [ Gator.Node.V_infl i ] -> i.v_vid = Some "button_esc"
    | _ -> false);
  fact "cast filters e down to the ViewFlipper in f"
    (match views_at "ConsoleActivity" "onCreate" 0 "f" with
    | [ Gator.Node.V_infl i ] -> i.v_cls = "ViewFlipper"
    | _ -> false);
  fact "onClick parameter r receives the ESC ImageView"
    (has_infl "act_console" "ImageView" (views_at "EscapeButtonListener" "onClick" 1 "r"));
  fact "v in onClick resolves to the programmatic TerminalView"
    (has_alloc "TerminalView" (views_at "EscapeButtonListener" "onClick" 1 "v"));
  fact "interaction tuple (ConsoleActivity, ESC, click, onClick) derived"
    (List.exists
       (fun (ix : Gator.Analysis.interaction) ->
         ix.ix_activity = "ConsoleActivity"
         && ix.ix_event = Framework.Listeners.Click
         && ix.ix_handler.mid_cls = "EscapeButtonListener")
       (Gator.Analysis.interactions r));
  List.rev !facts

let figures () =
  let app = Corpus.Connectbot.app () in
  let r = Gator.Analysis.analyze app in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "Figures 1/3/4: ConnectBot example; paper-narrated facts:\n";
  List.iter
    (fun (name, ok) ->
      Buffer.add_string buf (Printf.sprintf "  [%s] %s\n" (if ok then "ok" else "FAIL") name))
    (connectbot_facts r);
  Buffer.add_string buf "\nConstraint graph (Graphviz):\n";
  Buffer.add_string buf (Fmt.str "%a" Gator.Reader.pp_dot r.graph);
  Buffer.contents buf

let ablations () =
  let configs =
    [
      ("default", Gator.Config.default);
      ("no cast filtering", { Gator.Config.default with cast_filtering = false });
      ("no FindOne refinement", { Gator.Config.default with findone_refinement = false });
      ("no listener callbacks", { Gator.Config.default with listener_callbacks = false });
      ("no dialog modeling", { Gator.Config.default with model_dialogs = false });
      ("baseline (all off)", Gator.Config.baseline);
      ("context-sensitive (inline 1)", { Gator.Config.default with inline_depth = 1 });
      ("context-sensitive (inline 2)", { Gator.Config.default with inline_depth = 2 });
    ]
  in
  let apps =
    ("Fig.1", Corpus.Connectbot.app ())
    :: (List.filter_map Corpus.Apps.by_name [ "Mileage"; "XBMC" ]
       |> List.map (fun spec -> (spec.Corpus.Spec.sp_name, Corpus.Gen.generate spec)))
  in
  let header =
    ("Config" :: List.concat_map (fun (name, _) -> [ name ^ " recv"; name ^ " res" ]) apps)
    @ [ "ix"; "sound" ]
  in
  let rows =
    List.map
      (fun (label, config) ->
        let cells =
          List.concat_map
            (fun (_, app) ->
              let r = Gator.Analysis.analyze ~config app in
              let t2 = Gator.Metrics.table2 r in
              [ Table.cell_float t2.t2_receivers; Table.cell_float t2.t2_results ])
            apps
        in
        (* Interactions and soundness coverage on the Figure 1 app:
           disabling listener callbacks loses interaction tuples and
           breaks coverage of the dynamic trace. *)
        let fig1 = snd (List.hd apps) in
        let r = Gator.Analysis.analyze ~config fig1 in
        let interactions = List.length (Gator.Analysis.interactions r) in
        let coverage = Dynamic.Oracle.check r (Dynamic.Interp.run fig1) in
        (label :: cells)
        @ [
            Table.cell_int interactions;
            (if Dynamic.Oracle.is_sound coverage then "yes"
             else Printf.sprintf "NO (%d misses)" (List.length coverage.cov_misses));
          ])
      configs
  in
  "Ablation: impact of each modeling refinement (ix/sound columns: Figure 1 app)\n"
  ^ Table.render ~header rows

let context_precision () =
  let configs =
    [
      ("ci", Gator.Config.default);
      ("cs-1", { Gator.Config.default with inline_depth = 1 });
      ("cs-2", { Gator.Config.default with inline_depth = 2 });
    ]
  in
  let apps =
    [
      ( "AliasTight",
        Corpus.Gen.alias_heavy_app ~name:"AliasTight" ~groups:4 ~sites_per_group:5 ~seed:11 () );
      ( "AliasWide",
        Corpus.Gen.alias_heavy_app ~name:"AliasWide" ~groups:6 ~sites_per_group:8 ~seed:23 () );
      ("XBMC", Corpus.Gen.generate (Option.get (Corpus.Apps.by_name "XBMC")));
    ]
  in
  let header = [ "App"; "config"; "avg recv"; "avg res"; "recv shrink"; "ctxs"; "ctx keys" ] in
  let rows =
    List.concat_map
      (fun (name, app) ->
        let base = ref 1.0 in
        List.map
          (fun (label, config) ->
            let r = Gator.Analysis.analyze ~config app in
            let t2 = Gator.Metrics.table2 r in
            let s = Gator.Metrics.solver_stats r in
            let recv = Option.value t2.t2_receivers ~default:0.0 in
            if label = "ci" then base := recv;
            [
              name;
              label;
              Table.cell_float t2.t2_receivers;
              Table.cell_float t2.t2_results;
              (if label = "ci" then "-"
               else Printf.sprintf "%.1fx" (!base /. Float.max 1e-9 recv));
              (if s.sv_ctx_count = 0 then "-" else Table.cell_int s.sv_ctx_count);
              (if s.sv_ctx_keys = 0 then "-" else Table.cell_int s.sv_ctx_keys);
            ])
          configs)
      apps
  in
  "Context-sensitivity precision: average solution-set sizes vs the context-insensitive\n\
   baseline (alias-heavy apps dispatch every site through shared helpers, so \"recv shrink\"\n\
   is the receiver-set deflation bought by inlining depth; ctxs/ctx keys are minted by the\n\
   context-keyed interned engine)\n"
  ^ Table.render ~header rows

(* Precision companion to Table 2: how much of the solution space the
   unknown-id markers pollute.  Corpus apps never mint a ⊤ marker, so
   XBMC is the 0% control row; the reflective family routes its
   layout/id lookups through [R.layout.?]/[R.id.?] and shows the price
   of soundness as the fraction of nonempty solution sets that carry
   the imprecision taint. *)
let top_pollution () =
  let apps =
    [
      ("XBMC", Corpus.Gen.generate (Option.get (Corpus.Apps.by_name "XBMC")));
      ("ReflHeavy", Corpus.Gen.reflective_app ~name:"ReflHeavy" ~layouts:3 ~seed:2014 ());
      ("ReflWide", Corpus.Gen.reflective_app ~name:"ReflWide" ~layouts:6 ~seed:7 ());
    ]
  in
  let header = [ "App"; "markers"; "nonempty sets"; "polluted"; "polluted %" ] in
  let rows =
    List.map
      (fun (name, app) ->
        let r = Gator.Analysis.analyze app in
        let polluted, nonempty = Gator.Analysis.pollution r in
        [
          name;
          (if Gator.Graph.has_top r.graph then "yes" else "no");
          Table.cell_int nonempty;
          Table.cell_int polluted;
          Printf.sprintf "%.1f%%"
            (100. *. float_of_int polluted /. Float.max 1.0 (float_of_int nonempty));
        ])
      apps
  in
  "Unknown-id pollution: solution sets tainted by a reflective (top) marker, read\n\
   alongside Table 2's averages; corpus apps carry no markers, so XBMC is the 0% control\n"
  ^ Table.render ~header rows

let scale_spec (s : Corpus.Spec.t) k =
  {
    s with
    Corpus.Spec.sp_name = Printf.sprintf "%s-x%d" s.sp_name k;
    sp_classes = s.sp_classes * k;
    sp_methods = s.sp_methods * k;
    sp_activities = s.sp_activities * k;
    sp_layouts = s.sp_layouts * k;
    sp_view_ids = s.sp_view_ids * k;
    sp_inflated_nodes = s.sp_inflated_nodes * k;
    sp_view_allocs = s.sp_view_allocs * k;
    sp_listener_classes = s.sp_listener_classes * k;
    sp_listener_allocs = s.sp_listener_allocs * k;
    sp_findview_ops = s.sp_findview_ops * k;
    sp_addview_ops = s.sp_addview_ops * k;
    sp_setid_ops = s.sp_setid_ops * k;
    sp_setlistener_ops = s.sp_setlistener_ops * k;
  }

let scalability ?(factors = [ 1; 2; 4; 8 ]) () =
  let base = Option.get (Corpus.Apps.by_name "ConnectBot") in
  let header = [ "scale"; "classes"; "methods"; "ops"; "locations"; "time(s)" ] in
  let rows =
    List.map
      (fun k ->
        let spec = scale_spec base k in
        let app = Corpus.Gen.generate spec in
        let r = Gator.Analysis.analyze app in
        let classes, methods = Jir.Ast.program_size app.program in
        [
          Printf.sprintf "x%d" k;
          Table.cell_int classes;
          Table.cell_int methods;
          Table.cell_int (List.length (Gator.Analysis.ops r));
          Table.cell_int (List.length (Gator.Graph.locations r.graph));
          Printf.sprintf "%.3f" r.solve_seconds;
        ])
      factors
  in
  "Scalability: analysis cost vs application size (ConnectBot spec scaled)\n"
  ^ Table.render ~header rows

let soundness_sweep ?(apps = 25) ?(seed = 42) () =
  let buf = Buffer.create 1024 in
  let check name app =
    let analysis = Gator.Analysis.analyze app in
    let outcome = Dynamic.Interp.run app in
    let coverage = Dynamic.Oracle.check analysis outcome in
    Buffer.add_string buf
      (Printf.sprintf "  %-20s %d/%d %s\n" name coverage.cov_covered coverage.cov_total
         (if Dynamic.Oracle.is_sound coverage then "sound" else "UNSOUND"));
    Dynamic.Oracle.is_sound coverage
  in
  Buffer.add_string buf "Soundness sweep: dynamic trace coverage by the static solution\n";
  let rng = Util.Prng.create seed in
  let ok_random =
    List.for_all
      (fun i ->
        let spec = Corpus.Gen.random_spec ~name:(Printf.sprintf "Random_%d" i) rng in
        check spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec))
      (List.init apps (fun i -> i))
  in
  let ok_corpus =
    List.for_all
      (fun spec -> check spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec))
      Corpus.Apps.specs
  in
  let ok_connectbot = check "ConnectBot(Fig.1)" (Corpus.Connectbot.app ()) in
  Buffer.add_string buf
    (if ok_random && ok_corpus && ok_connectbot then "ALL SOUND\n" else "SOUNDNESS VIOLATIONS FOUND\n");
  Buffer.contents buf
