(* Regenerate the paper's tables and figures.  See DESIGN.md for the
   experiment index. *)

(* [jobs = None] lets the corpus driver pick the default pool size
   (recommended domain count capped at 8); [--jobs 1]
   takes the exact sequential path. *)
let corpus jobs fail_apps = Report.Experiments.run_corpus ?jobs ~fail_apps ()

(* Injected failures are expected (the smoke test asserts the batch
   survives them); only an app that failed on its own flips the exit
   code. *)
let exit_code fail_apps results =
  let unexpected r =
    Result.is_error r.Report.Experiments.cs_run
    && not (List.mem r.Report.Experiments.cs_spec.Corpus.Spec.sp_name fail_apps)
  in
  if List.exists unexpected results then 1 else 0

let run_table1 jobs fail_apps =
  let results = corpus jobs fail_apps in
  print_endline (Report.Experiments.table1 results);
  exit (exit_code fail_apps results)

let run_table2 jobs fail_apps =
  let results = corpus jobs fail_apps in
  print_endline (Report.Experiments.table2 results);
  exit (exit_code fail_apps results)

let run_solverstats jobs fail_apps =
  let results = corpus jobs fail_apps in
  print_endline (Report.Experiments.solver_stats results);
  exit (exit_code fail_apps results)

let run_casestudy () = print_endline (Report.Experiments.case_study ())

let run_figures () = print_endline (Report.Experiments.figures ())

let run_ablations () = print_endline (Report.Experiments.ablations ())

let run_soundness apps seed = print_endline (Report.Experiments.soundness_sweep ~apps ~seed ())

let run_scalability () = print_endline (Report.Experiments.scalability ())

let run_precision () =
  print_endline (Report.Experiments.context_precision ());
  print_newline ();
  print_endline (Report.Experiments.top_pollution ())

(* CI smoke, part 2: a warm (incremental) re-solve of a patched app
   must be bit-identical to a from-scratch solve of the same app —
   checked on a seed-level patch of the corpus outlier and on a
   cycle-splitting edit of a cycle-heavy app (the worst case for the
   condensation-based invalidation). *)
let verify_incremental name app patch =
  let config = Gator.Config.default in
  let _, prev = Gator.Incremental.analyze_solved ~config app in
  let patched =
    match Corpus.Patch.apply app patch with
    | Ok patched -> patched
    | Error e ->
        Fmt.epr "verify: patch failed to apply on %s: %s@." name e;
        exit 1
  in
  let warm, _ = Gator.Incremental.analyze_incremental ~config ~prev patched in
  let cold = Gator.Analysis.analyze ~config patched in
  let d = Gator.Diff.compare cold warm in
  if not (Gator.Diff.is_empty d) then begin
    Fmt.epr "verify: warm solution DIFFERS from cold on patched %s:@.%a@." name Gator.Diff.pp d;
    exit 1
  end;
  let s = warm.Gator.Analysis.stats in
  if not s.Gator.Solve.warm_solve then begin
    Fmt.epr "verify: incremental solve of patched %s was not warm (fallback: %s)@." name
      (Option.value ~default:"-" s.Gator.Solve.fallback);
    exit 1
  end;
  Printf.printf "verify: incremental (warm) = from-scratch on patched %s (%d dirty / %d \
                 reused of %d components)\n"
    name s.Gator.Solve.dirty_comps s.Gator.Solve.reused_comps s.Gator.Solve.scc_count

(* The same patch through the edit-proportional assembly: it must
   take the fragment path, re-extract only the edited method, give
   the shape a full re-extraction gives, freeze through the delta
   path [expect] names to what a full freeze gives, take its edit
   script from the freeze delta equal to a shape diff's, and solve
   warm to the from-scratch answer. *)
let verify_fragments ?(expect = fun _ -> true) name app patch =
  let config = Gator.Config.default in
  let fail fmt = Fmt.kstr (fun s -> Fmt.epr "verify: %s@." s; exit 1) fmt in
  let _, prev = Gator.Incremental.analyze_solved ~config app in
  let patched = match Corpus.Patch.apply app patch with Ok p -> p | Error e -> fail "patch failed on %s: %s" name e in
  match Gator.Incremental.assemble ~config ~prev patched with
  | Error reason -> fail "fragment assembly declined on patched %s: %s" name reason
  | Ok a ->
      let freeze = a.a_freeze in
      if not (expect freeze.fz_path) then
        fail "fragment patch on %s froze through an unexpected path: %a" name Gator.Graph.pp_freeze_path freeze.fz_path;
      if Gator.Graph.frozen_flow a.a_graph <> Gator.Graph.freeze_with a.a_graph then
        fail "delta-frozen flow DIFFERS from a full freeze on patched %s" name;
      let shape = Gator.Solve.shape_of_graph a.a_graph in
      let full = Gator.Extract.run ~interner:(Gator.Solve.solved_interner prev) config patched in
      if shape <> Gator.Solve.shape_of_graph full then
        fail "fragment-assembled shape DIFFERS from a full re-extraction on patched %s" name;
      let e = Gator.Diff.edit_script ~old_:(Gator.Solve.shape_of_solved prev) ~new_:shape in
      (match a.a_script with
      | Gator.Incremental.From_delta -> ()
      | From_diff reason -> fail "fragment patch on %s took its edit script from a shape diff (%s)" name reason);
      if { a.a_edits with es_moved = None } <> e then
        fail "edit script derived from the freeze delta DIFFERS from a shape diff on patched %s" name;
      let stats, _ = Gator.Solve.run_incremental ~prev ~edits:a.a_edits ~new_shape:shape config patched a.a_graph in
      let warm = Gator.Analysis.make ~app:patched ~config ~graph:a.a_graph ~stats ~solve_seconds:0. in
      let d = Gator.Diff.compare (Gator.Analysis.analyze ~config patched) warm in
      if not (stats.Gator.Solve.warm_solve && Gator.Diff.is_empty d) then
        fail "fragment-assembled warm solve DIFFERS from cold on patched %s" name;
      Printf.printf
        "verify: fragment patch on %s re-extracted %d of %d methods; shape = full re-extraction \
         (%d+%d edges, %d+%d seeds); %s (%d condensed rows rebuilt) = full freeze; edit script from \
         the freeze delta = shape diff\n"
        name a.a_reextracted a.a_methods (Array.length e.es_removed_edges) (Array.length e.es_added_edges)
        (Array.length e.es_removed_seeds) (Array.length e.es_added_seeds)
        (Fmt.str "%a" Gator.Graph.pp_freeze_path freeze.fz_path)
        freeze.fz_rows;
      patched

(* CI smoke, part 3: the query daemon's full dispatch — load XBMC,
   query a node, patch, re-query, shutdown — through the exact handler
   the socket loop runs.  The patched-in allocation must be invisible
   before the patch (a structured unknown-node error), resolve after
   it to exactly what a cold analysis of the patched app reads at the
   node, through a warm incremental solve; [stats] must count the one
   answered query and not the unknown-node one. *)
let verify_daemon () =
  let module J = Util.Json in
  let t = Server.Daemon.create ~log:false ~socket:"(in-process)" () in
  let rpc name payload =
    match J.of_string (Server.Daemon.handle t (J.to_string payload)) with
    | Ok j -> j
    | Error e ->
        Fmt.epr "verify: daemon %s: response is not JSON: %s@." name e;
        exit 1
  in
  let fail name resp =
    Fmt.epr "verify: daemon %s: unexpected response %s@." name (J.to_string resp);
    exit 1
  in
  let expect_ok name resp =
    match (J.member "error" resp, J.member "ok" resp) with
    | None, Some payload -> payload
    | _ -> fail name resp
  in
  let expect_error name code resp =
    match Option.bind (J.member "error" resp) (J.member "code") with
    | Some (J.String c) when c = code -> ()
    | _ -> fail (Printf.sprintf "%s (wanted error %s)" name code) resp
  in
  let int_field name field payload =
    match J.member field payload with Some (J.Int n) -> n | _ -> fail name payload
  in
  let node =
    J.Obj
      [
        ( "var",
          J.Obj
            [
              ("cls", J.String "Activity_0");
              ("meth", J.String "onCreate");
              ("arity", J.Int 0);
              ("name", J.String "verify_daemon_tmp");
            ] );
      ]
  in
  let query =
    J.Obj
      [ ("method", J.String "points-to-of-node"); ("app", J.String "XBMC"); ("node", node) ]
  in
  ignore (expect_ok "load" (rpc "load" (J.Obj [ ("method", J.String "load"); ("app", J.String "XBMC") ])));
  expect_error "pre-patch query" "unknown-node" (rpc "pre-patch query" query);
  let edits =
    J.List
      [
        J.Obj
          [
            ("edit", J.String "add_stmt");
            ("cls", J.String "Activity_0");
            ("meth", J.String "onCreate");
            ("arity", J.Int 0);
            ( "stmt",
              J.Obj
                [
                  ( "new",
                    J.List [ J.String "verify_daemon_tmp"; J.String "android.widget.Button" ] );
                ] );
          ];
      ]
  in
  let patched =
    expect_ok "patch"
      (rpc "patch"
         (J.Obj [ ("method", J.String "patch"); ("app", J.String "XBMC"); ("edits", edits) ]))
  in
  (match J.member "warm" patched with
  | Some (J.Bool true) -> ()
  | _ -> fail "patch (wanted a warm incremental solve)" patched);
  let answer = rpc "post-patch query" query in
  let cold =
    let base = Corpus.Gen.generate (Option.get (Corpus.Apps.by_name "XBMC")) in
    let app = Result.get_ok (Result.bind (Corpus.Patch.of_json edits) (Corpus.Patch.apply base)) in
    let node = Result.get_ok (Server.Protocol.node_of_json node) in
    List.map
      (fun v -> J.String (Fmt.str "%a" Gator.Node.pp_value v))
      (Gator.Analysis.values_at (Gator.Analysis.analyze app) node)
  in
  (match expect_ok "post-patch query" answer with
  | J.List [ _ ] as payload when J.equal payload (J.List cold) -> ()
  | payload -> fail "post-patch query (wanted the cold analysis's one value)" payload);
  (match J.member "generation" answer with
  | Some (J.Int 1) -> ()
  | _ -> fail "post-patch query (wanted generation 1)" answer);
  let stats =
    expect_ok "stats"
      (rpc "stats" (J.Obj [ ("method", J.String "stats"); ("app", J.String "XBMC") ]))
  in
  if int_field "stats" "queries" stats <> 1 then fail "stats (wanted exactly 1 query)" stats;
  ignore (expect_ok "shutdown" (rpc "shutdown" (J.Obj [ ("method", J.String "shutdown") ])));
  Printf.printf
    "verify: daemon load/query/patch/re-query round-trip OK on XBMC (warm patch to generation 1, \
     answer = cold analysis)\n"

(* CI smoke, part 4: the streaming pipeline — a small stream at jobs 4
   must produce exactly one row per app, byte-identical (after order
   normalization) to the batch pool over the same specs, without ever
   writing the frozen shared tier. *)
let verify_stream () =
  let apps = 24 and seed = 77 and jobs = 4 in
  let tier = Gator.Intern.shared_tier () in
  let frozen_before = Gator.Intern.shared_counts tier in
  let rows = ref [] in
  let stats =
    Report.Experiments.run_stream ~jobs ~timings:false ~seed ~apps
      ~emit:(fun line -> rows := line :: !rows)
      ()
  in
  if stats.Pool.Stream.st_consumed <> apps || List.length !rows <> apps then begin
    Fmt.epr "verify: stream produced %d rows for %d apps@." (List.length !rows) apps;
    exit 1
  end;
  if stats.Pool.Stream.st_failed <> 0 then begin
    Fmt.epr "verify: stream reported %d failed apps@." stats.Pool.Stream.st_failed;
    exit 1
  end;
  let frozen_after = Gator.Intern.shared_counts tier in
  if frozen_before <> frozen_after then begin
    Fmt.epr "verify: frozen tier grew during the stream: (%d,%d) -> (%d,%d)@."
      (fst frozen_before) (snd frozen_before) (fst frozen_after) (snd frozen_after);
    exit 1
  end;
  (* differential: same specs through the batch pool must yield the
     same rows *)
  let specs = List.init apps (Corpus.Gen.stream_spec ~seed) in
  let batch =
    Report.Experiments.run_specs ~jobs specs
    |> List.map (Report.Experiments.jsonl_row ~timings:false)
  in
  let norm rows = List.sort String.compare rows in
  if norm !rows <> norm batch then begin
    Fmt.epr "verify: stream rows differ from batch rows@.";
    exit 1
  end;
  Printf.printf
    "verify: stream = batch on %d generated apps (jobs %d, peak queue %d, frozen tier %d+%d \
     entries untouched)\n"
    apps jobs stats.Pool.Stream.st_max_queued (fst frozen_after) (snd frozen_after)

(* CI smoke, part 5: sound mode on the reflection-heavy family.  The
   ⊤ markers make the static solution an over-approximation of every
   possible concrete resolution, so the check sweeps the dynamic
   oracle over all candidate layouts and view ids (plus the
   no-resolution run) and requires full coverage each time.  The
   engines must also agree bit-for-bit — solution sets AND
   imprecision taint tables — and the batch pool must solve
   the family identically at jobs 1 and 4. *)
let verify_reflection () =
  let layouts = 3 in
  let app = Corpus.Gen.reflective_app ~name:"ReflHeavy" ~layouts ~seed:2014 () in
  let reference = Gator.Analysis.reference app in
  if not (Gator.Graph.has_top reference.Gator.Analysis.graph) then begin
    Fmt.epr "verify: ReflHeavy minted no unknown-id markers@.";
    exit 1
  end;
  let taint_table (r : Gator.Analysis.t) =
    List.sort compare
      (List.map
         (fun (node, vs) ->
           ( Fmt.str "%a" Gator.Node.pp node,
             List.sort compare
               (List.map (Fmt.str "%a" Gator.Node.pp_value) vs) ))
         (Gator.Reader.tainted_nodes r.Gator.Analysis.graph))
  in
  let check_same label candidate =
    let d = Gator.Diff.compare reference candidate in
    if not (Gator.Diff.is_empty d) then begin
      Fmt.epr "verify: %s solution DIFFERS from naive on ReflHeavy:@.%a@." label Gator.Diff.pp d;
      exit 1
    end;
    if taint_table reference <> taint_table candidate then begin
      Fmt.epr "verify: %s taint table DIFFERS from naive on ReflHeavy@." label;
      exit 1
    end
  in
  check_same "interned" (Gator.Analysis.analyze app);
  (* the soundness anchor: every concrete resolution of the reflective
     lookups must be covered by the one static solution *)
  let layout_cands =
    None :: List.init layouts (fun i -> Some (Printf.sprintf "ReflHeavy_lyt%d" i))
  in
  let view_cands =
    None
    :: List.concat
         (List.init layouts (fun i ->
              [ Some (Printf.sprintf "vid_root%d" i); Some (Printf.sprintf "vid_btn%d" i) ]))
  in
  let resolutions = ref 0 in
  List.iter
    (fun top_layout ->
      List.iter
        (fun top_view ->
          incr resolutions;
          let options = { Dynamic.Interp.default_options with top_layout; top_view } in
          let c = Dynamic.Oracle.check reference (Dynamic.Interp.run ~options app) in
          if not (Dynamic.Oracle.is_sound c) then begin
            Fmt.epr "verify: sound mode UNSOUND on ReflHeavy at layout=%s view=%s:@.%a@."
              (Option.value ~default:"-" top_layout)
              (Option.value ~default:"-" top_view)
              Dynamic.Oracle.pp_coverage c;
            exit 1
          end)
        view_cands)
    layout_cands;
  (* the pool must not perturb ⊤ solving: a small reflective family
     fingerprints identically on the sequential path and on 4 domains
     (tasks generate their own apps — App.t caches are unsynchronized) *)
  let fingerprint (r : Gator.Analysis.t) =
    let graph = r.Gator.Analysis.graph in
    (List.sort compare
       (List.map
          (fun node ->
            Fmt.str "%a = %a" Gator.Node.pp node
              Fmt.(Dump.list Gator.Node.pp_value)
              (Gator.Reader.points_to graph node))
          (Gator.Graph.locations graph)),
      taint_table r,
      Gator.Analysis.pollution r )
  in
  let family = [ 1; 2; 3; 4 ] in
  let run_family jobs =
    Pool.map ~jobs
      (fun layouts ->
        let app =
          Corpus.Gen.reflective_app
            ~name:(Printf.sprintf "ReflJobs%d" layouts)
            ~layouts ~seed:(100 + layouts) ()
        in
        fingerprint (Gator.Analysis.analyze app))
      family
    |> List.map Pool.value_exn
  in
  if run_family 1 <> run_family 4 then begin
    Fmt.epr "verify: reflective family solved differently at jobs 1 vs jobs 4@.";
    exit 1
  end;
  let polluted, nonempty = Gator.Analysis.pollution reference in
  Printf.printf
    "verify: sound mode covers all %d oracle resolutions on ReflHeavy (engines \
     bit-identical with taints, %d/%d sets top-polluted, jobs 1 = jobs 4 on %d reflective apps)\n"
    !resolutions polluted nonempty (List.length family)

(* CI smoke: the interned engine must agree bit-for-bit with the naive
   rule-table reference on the largest corpus app. *)
let run_verify () =
  let check name app =
    let reference = Gator.Analysis.reference app in
    let interned = Gator.Analysis.analyze app in
    let d = Gator.Diff.compare reference interned in
    if Gator.Diff.is_empty d then begin
      let s = Gator.Metrics.solver_stats interned in
      Printf.printf
        "verify: interned (scc-condensed) = naive on %s (%d ops, %d values, %d set words, %d \
         sccs, largest %d)\n"
        name s.Gator.Metrics.sv_ops s.Gator.Metrics.sv_interned_values
        s.Gator.Metrics.sv_bitset_words s.Gator.Metrics.sv_scc_count
        s.Gator.Metrics.sv_largest_scc
    end
    else begin
      Fmt.epr "verify: interned solution DIFFERS from naive on %s:@.%a@." name Gator.Diff.pp d;
      exit 1
    end
  in
  let spec =
    match Corpus.Apps.by_name "XBMC" with
    | Some spec -> spec
    | None -> failwith "corpus app XBMC not found"
  in
  check spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec);
  (* the condensation earns its keep on cyclic flow, so check it where
     the direct-edge graph is one big tangle of rings *)
  let cycle_heavy =
    Corpus.Gen.cyclic_app ~name:"CycleHeavy" ~chains:4 ~chain_len:24 ~two_cycles:6 ~bridges:8
      ~seed:2014 ()
  in
  check "CycleHeavy" cycle_heavy;
  (* context sensitivity: the interned engine's id-space clone
     expansion must agree bit-for-bit with the naive reference's
     extraction-time inlining *)
  let check_cs name app =
    List.iter
      (fun depth ->
        let config = { Gator.Config.default with Gator.Config.inline_depth = depth } in
        let keyed = Gator.Analysis.analyze ~config app in
        let inlined = Gator.Analysis.reference ~config app in
        let d = Gator.Diff.compare keyed inlined in
        if not (Gator.Diff.is_empty d) then begin
          Fmt.epr
            "verify: context-keyed solution DIFFERS from naive-inlined on %s (depth %d):@.%a@."
            name depth Gator.Diff.pp d;
          exit 1
        end;
        let s = Gator.Metrics.solver_stats keyed in
        Printf.printf
          "verify: context-keyed = naive-inlined on %s at depth %d (%d contexts, %d ctx keys)\n"
          name depth s.Gator.Metrics.sv_ctx_count s.Gator.Metrics.sv_ctx_keys)
      [ 1; 2 ]
  in
  check_cs spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec);
  check_cs "AliasHeavy"
    (Corpus.Gen.alias_heavy_app ~name:"AliasHeavy" ~groups:4 ~sites_per_group:5 ~seed:11 ());
  let seed_patch =
    [
      Corpus.Patch.Add_stmt
        {
          cls = "Activity_0";
          meth = "onCreate";
          arity = 0;
          stmt = Jir.Ast.New ("verify_tmp", "android.widget.Button");
        };
    ]
  in
  verify_incremental spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec) seed_patch;
  (* the one-statement patch must take the delta freeze *)
  ignore
    (verify_fragments
       ~expect:(function Gator.Graph.Full _ -> false | _ -> true)
       spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec) seed_patch);
  (* a cycle-splitting edit moves SCC membership — the invalidation
     path the seed-level patch above never exercises; the ring-closing
     copy is located by scanning so the index tracks the generator *)
  let ring_close =
    let open Jir.Ast in
    let meth =
      Option.bind
        (find_class cycle_heavy.Framework.App.program "CycleHeavy_Activity")
        (fun c -> find_meth c { mk_name = "onCreate"; mk_arity = 0 })
    in
    match meth with
    | None -> failwith "CycleHeavy_Activity.onCreate not found"
    | Some m -> (
        let close i = function Copy ("ch0_0", "ch0_23") -> Some i | _ -> None in
        match List.find_mapi (fun i s -> close i s) m.m_body with
        | Some i -> i
        | None -> failwith "ring-closing copy ch0_0 <- ch0_23 not found")
  in
  let ring_split =
    [
      Corpus.Patch.Remove_stmt
        { cls = "CycleHeavy_Activity"; meth = "onCreate"; arity = 0; index = ring_close };
    ]
  in
  verify_incremental "CycleHeavy" cycle_heavy ring_split;
  (* the same split through the fragment path re-condenses the ring's
     component alone, and closing the ring again merges it *)
  let split_app =
    verify_fragments ~expect:(( = ) Gator.Graph.Delta_split) "CycleHeavy (ring split)" cycle_heavy ring_split
  in
  ignore
    (verify_fragments ~expect:(( = ) Gator.Graph.Delta_merged) "CycleHeavy (ring close)" split_app
       [
         Corpus.Patch.Add_stmt
           { cls = "CycleHeavy_Activity"; meth = "onCreate"; arity = 0; stmt = Jir.Ast.Copy ("ch0_0", "ch0_23") };
       ]);
  verify_reflection ();
  verify_daemon ();
  verify_stream ();
  exit 0

let run_all jobs fail_apps =
  let results = corpus jobs fail_apps in
  print_endline (Report.Experiments.table1 results);
  print_newline ();
  print_endline (Report.Experiments.table2 results);
  print_newline ();
  print_endline (Report.Experiments.solver_stats results);
  print_newline ();
  print_endline (Report.Experiments.case_study ());
  print_newline ();
  print_endline (Report.Experiments.ablations ());
  print_newline ();
  print_endline (Report.Experiments.context_precision ());
  print_newline ();
  print_endline (Report.Experiments.soundness_sweep ());
  exit (exit_code fail_apps results)

open Cmdliner

let jobs_arg =
  Arg.(
    value
    & opt (some Jobs_arg.conv) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Workers for the per-app batch, from 1 to 127, counting the calling thread: a run \
           spawns N-1 domains. Defaults to the recommended domain count capped at 8; 1 runs the \
           exact sequential path.")

let fail_apps_arg =
  Arg.(
    value & opt_all string []
    & info [ "inject-failure" ] ~docv:"APP"
        ~doc:
          "Deliberately crash the named app's task (repeatable). The batch must survive with a \
           FAILED row; used by fault-isolation smoke tests.")

let simple name doc f = Cmd.v (Cmd.info name ~doc) Term.(const f $ const ())

let batch name doc f = Cmd.v (Cmd.info name ~doc) Term.(const f $ jobs_arg $ fail_apps_arg)

let soundness_cmd =
  let apps = Arg.(value & opt int 25 & info [ "apps" ] ~doc:"Number of random apps to test.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  Cmd.v
    (Cmd.info "soundness" ~doc:"Dynamic-oracle soundness sweep over random apps and the corpus.")
    Term.(const run_soundness $ apps $ seed)

let () =
  let default = Term.(const run_all $ jobs_arg $ fail_apps_arg) in
  let info = Cmd.info "experiments" ~doc:"Regenerate the paper's tables and figures." in
  let cmds =
    [
      batch "table1" "Table 1: app features and constraint-graph populations." run_table1;
      batch "table2" "Table 2: analysis time and average solution sizes." run_table2;
      batch "solverstats"
        "Solver work counters: the interned engine's semi-naive schedule vs naive re-iteration."
        run_solverstats;
      simple "casestudy" "Section 5 precision case study against the dynamic oracle." run_casestudy;
      simple "figures" "Figures 1/3/4: ConnectBot facts and constraint graph." run_figures;
      simple "ablations" "Precision impact of disabling each refinement." run_ablations;
      simple "scalability" "Analysis cost vs application size." run_scalability;
      simple "precision"
        "Context-sensitivity precision delta on alias-heavy apps, plus the unknown-id pollution \
         table sound mode adds next to Table 2."
        run_precision;
      simple "verify"
        "CI smoke: SCC-condensed interned engine agrees bit-for-bit with naive on XBMC and on a \
         cycle-heavy app; the context-keyed engine agrees with the naive reference's \
         extraction-time inlining on XBMC and an alias-heavy app; incremental warm solves \
         match cold ones; sound mode stays a superset of every dynamic-oracle resolution on the \
         reflection-heavy family (engines bit-identical, jobs 1 = jobs 4); the query daemon \
         answers a load/query/patch/re-query round-trip; a small stream matches the batch pool without writing the frozen tier."
        run_verify;
      soundness_cmd;
    ]
  in
  exit (Cmd.eval (Cmd.group ~default info cmds))
