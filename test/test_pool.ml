(* Domain-pool batch analysis: the parallel drivers must be
   observationally identical to the sequential loop — bit-identical
   solutions and byte-identical reports across the engine x schedule
   matrix ({naive, interned} x {jobs 1, 2, 4}) — and a crashing or
   malformed app must fail alone without taking the batch down. *)
open Gator

let with_solver solver config = { config with Config.solver }

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Pool primitives *)

let test_ordered_results () =
  let tasks = List.init 20 (fun i () -> i * i) in
  let outcomes = Pool.run ~jobs:4 tasks in
  Alcotest.check Alcotest.int "all results" 20 (List.length outcomes);
  List.iteri
    (fun i outcome ->
      Alcotest.check Alcotest.int "submission order" (i * i) (Pool.value_exn outcome))
    outcomes

let test_sequential_path_matches () =
  let tasks = List.init 7 (fun i () -> Printf.sprintf "task-%d" i) in
  let seq = List.map Pool.value_exn (Pool.run ~jobs:1 tasks) in
  let par = List.map Pool.value_exn (Pool.run ~jobs:4 tasks) in
  Alcotest.check (Alcotest.list Alcotest.string) "same values" seq par

let test_exception_isolation () =
  let tasks =
    [
      (fun () -> "before");
      (fun () -> failwith "boom");
      (fun () -> "after");
    ]
  in
  match Pool.run ~jobs:2 tasks with
  | [ a; b; c ] ->
      Alcotest.check Alcotest.string "sibling before" "before" (Pool.value_exn a);
      (match b.Pool.oc_result with
      | Error e ->
          Alcotest.check Alcotest.bool "exception text captured" true
            (contains e.Pool.err_exn "boom")
      | Ok _ -> Alcotest.fail "crashing task reported success");
      Alcotest.check Alcotest.string "sibling after" "after" (Pool.value_exn c)
  | _ -> Alcotest.fail "wrong outcome count"

let test_edge_cases () =
  Alcotest.check Alcotest.int "empty task list" 0 (List.length (Pool.run ~jobs:4 []));
  (* more workers than tasks *)
  let outcomes = Pool.run ~jobs:16 [ (fun () -> 1); (fun () -> 2) ] in
  Alcotest.check (Alcotest.list Alcotest.int) "two tasks" [ 1; 2 ]
    (List.map Pool.value_exn outcomes);
  Alcotest.check Alcotest.bool "default_jobs >= 1" true (Pool.default_jobs ~cap:0 () >= 1);
  Alcotest.check Alcotest.bool "default_jobs capped" true (Pool.default_jobs ~cap:2 () <= 2);
  Alcotest.check Alcotest.bool "config cap respected" true
    (Pool.default_jobs ~cap:Config.default.Config.jobs () <= Config.default.Config.jobs);
  match (Pool.run ~jobs:2 [ (fun () -> failwith "nope"); (fun () -> ()) ] : unit Pool.outcome list) with
  | [ bad; _ ] -> (
      match Pool.value_exn bad with
      | exception Failure _ -> ()
      | () -> Alcotest.fail "value_exn must raise on a failed outcome")
  | _ -> Alcotest.fail "wrong outcome count"

let test_submit_wait_shutdown () =
  let pool = Pool.create ~jobs:3 in
  Alcotest.check Alcotest.int "pool size" 3 (Pool.size pool);
  let counter = Atomic.make 0 in
  for _ = 1 to 50 do
    Pool.submit pool (fun () -> Atomic.incr counter)
  done;
  (* a raising raw task must not kill its worker *)
  Pool.submit pool (fun () -> failwith "raw-task crash");
  Pool.submit pool (fun () -> Atomic.incr counter);
  Pool.wait pool;
  Alcotest.check Alcotest.int "all raw tasks ran" 51 (Atomic.get counter);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  match Pool.submit pool (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "submit after shutdown must be rejected"

(* ------------------------------------------------------------------ *)
(* Differential matrix: corpus *)

let runs_exn results =
  List.map
    (fun r ->
      match r.Report.Experiments.cs_run with
      | Ok run -> run
      | Error e -> Alcotest.failf "%s unexpectedly failed: %s" r.cs_spec.Corpus.Spec.sp_name e)
    results

let check_batches_identical label reference candidate =
  Alcotest.check Alcotest.string (label ^ ": table1 bytes")
    (Report.Experiments.table1 reference)
    (Report.Experiments.table1 candidate);
  Alcotest.check Alcotest.string (label ^ ": table2 bytes")
    (Report.Experiments.table2 ~timings:false reference)
    (Report.Experiments.table2 ~timings:false candidate);
  Alcotest.check Alcotest.string (label ^ ": solverstats bytes")
    (Report.Experiments.solver_stats reference)
    (Report.Experiments.solver_stats candidate);
  List.iter2
    (fun (ref_run : Report.Experiments.corpus_run) (par_run : Report.Experiments.corpus_run) ->
      let d = Diff.compare ref_run.cr_analysis par_run.cr_analysis in
      if not (Diff.is_empty d) then
        Alcotest.failf "%s: %s solution differs: %a" label ref_run.cr_spec.Corpus.Spec.sp_name
          Diff.pp d)
    (runs_exn reference) (runs_exn candidate)

let test_corpus_matrix () =
  let configs =
    List.map
      (fun solver -> (Config.solver_name solver, with_solver solver Config.default))
      [ Config.Naive; Config.Interned ]
    (* context-keyed cs-2 (interned default) and its inlining twin:
       both must be deterministic across schedules, and byte-identical
       to each other at any jobs level *)
    @ [
        ("keyed-cs2", { Config.default with inline_depth = 2 });
        ("inlined-cs2", { Config.default with inline_depth = 2; ctx_keyed = false });
      ]
  in
  let batches =
    List.map
      (fun (tag, config) ->
        let reference = Report.Experiments.run_corpus ~config ~jobs:1 () in
        List.iter
          (fun jobs ->
            let label = Printf.sprintf "%s/jobs=%d" tag jobs in
            let candidate = Report.Experiments.run_corpus ~config ~jobs () in
            check_batches_identical label reference candidate)
          [ 2; 4 ];
        (tag, reference))
      configs
  in
  (* cross-engine: the keyed cs-2 corpus run solves exactly what the
     inlining cs-2 run solves (solver-stats columns differ — the keyed
     run reports its contexts — so compare the solutions and tables) *)
  let keyed = List.assoc "keyed-cs2" batches and inlined = List.assoc "inlined-cs2" batches in
  Alcotest.check Alcotest.string "keyed-cs2 = inlined-cs2: table1 bytes"
    (Report.Experiments.table1 inlined) (Report.Experiments.table1 keyed);
  Alcotest.check Alcotest.string "keyed-cs2 = inlined-cs2: table2 bytes"
    (Report.Experiments.table2 ~timings:false inlined)
    (Report.Experiments.table2 ~timings:false keyed);
  List.iter2
    (fun (ref_run : Report.Experiments.corpus_run) (par_run : Report.Experiments.corpus_run) ->
      let d = Diff.compare ref_run.cr_analysis par_run.cr_analysis in
      if not (Diff.is_empty d) then
        Alcotest.failf "keyed-cs2 vs inlined-cs2: %s solution differs: %a"
          ref_run.cr_spec.Corpus.Spec.sp_name Diff.pp d)
    (runs_exn inlined) (runs_exn keyed)

(* Random apps through the same matrix: each task generates its own
   app from the (immutable) spec, so nothing mutable crosses domains. *)
let test_random_matrix () =
  let rng = Util.Prng.create 7741 in
  for i = 1 to 6 do
    let spec = Corpus.Gen.random_spec ~name:(Printf.sprintf "PoolRandom_%d" i) rng in
    let analyze solver () =
      Analysis.analyze ~config:(with_solver solver Config.default) (Corpus.Gen.generate spec)
    in
    let reference = analyze Config.Naive () in
    List.iter
      (fun jobs ->
        let outcomes = Pool.run ~jobs [ analyze Config.Naive; analyze Config.Interned ] in
        List.iter
          (fun outcome ->
            let candidate = Pool.value_exn outcome in
            Same_solution.check
              (Printf.sprintf "%s/jobs=%d" spec.Corpus.Spec.sp_name jobs)
              reference candidate)
          outcomes)
      [ 2; 4 ];
    (* the cs-2 pair through the same schedules: pooled context-keyed
       and pooled inlining runs against a sequential structural cs-2 *)
    let cs2 ctx_keyed () =
      Analysis.analyze
        ~config:
          { (with_solver Config.Interned Config.default) with inline_depth = 2; ctx_keyed }
        (Corpus.Gen.generate spec)
    in
    let reference_cs2 =
      Analysis.analyze
        ~config:{ (with_solver Config.Naive Config.default) with inline_depth = 2 }
        (Corpus.Gen.generate spec)
    in
    List.iter
      (fun jobs ->
        let outcomes = Pool.run ~jobs [ cs2 true; cs2 false ] in
        List.iter
          (fun outcome ->
            Same_solution.check
              (Printf.sprintf "%s-cs2/jobs=%d" spec.Corpus.Spec.sp_name jobs)
              reference_cs2 (Pool.value_exn outcome))
          outcomes)
      [ 2; 4 ]
  done

(* ------------------------------------------------------------------ *)
(* Fault isolation *)

let test_injected_failure_isolation () =
  let reference = Report.Experiments.run_corpus ~jobs:1 () in
  let results = Report.Experiments.run_corpus ~jobs:4 ~fail_apps:[ "Mileage" ] () in
  Alcotest.check Alcotest.int "all 20 rows present" (List.length reference) (List.length results);
  List.iter2
    (fun (ref_result : Report.Experiments.corpus_result) result ->
      let name = result.Report.Experiments.cs_spec.Corpus.Spec.sp_name in
      match result.cs_run with
      | Error e when name = "Mileage" ->
          Alcotest.check Alcotest.bool "failure text captured" true
            (contains e "injected failure")
      | Error e -> Alcotest.failf "sibling %s failed: %s" name e
      | Ok _ when name = "Mileage" -> Alcotest.fail "injected failure did not fire"
      | Ok run ->
          let ref_run = Result.get_ok ref_result.cs_run in
          let d = Diff.compare ref_run.cr_analysis run.cr_analysis in
          if not (Diff.is_empty d) then
            Alcotest.failf "sibling %s solution differs: %a" name Diff.pp d)
    reference results;
  let rendered = Report.Experiments.table2 results in
  Alcotest.check Alcotest.bool "FAILED row rendered" true (contains rendered "FAILED: ");
  Alcotest.check Alcotest.bool "siblings still tabulated" true (contains rendered "XBMC")

let malformed_task kind () =
  let code, layouts =
    match kind with
    | `Code -> ("class Broken { %% lexical garbage", [])
    | `Layout -> ("class A extends Activity {\n}\n", [ ("bad_layout", "<LinearLayout") ])
  in
  match Framework.App.of_source ~name:"malformed" ~code ~layouts with
  | Error e -> failwith e
  | Ok app -> Analysis.analyze app

let test_malformed_input_isolation () =
  List.iter
    (fun kind ->
      let good () = Analysis.analyze (Corpus.Connectbot.app ()) in
      let outcomes = Pool.run ~jobs:4 [ good; malformed_task kind; good ] in
      match outcomes with
      | [ a; bad; b ] ->
          (match bad.Pool.oc_result with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "malformed input must fail its task");
          let reference = good () in
          List.iter
            (fun outcome ->
              Same_solution.check "ConnectBot sibling" reference
                (Pool.value_exn outcome))
            [ a; b ]
      | _ -> Alcotest.fail "wrong outcome count")
    [ `Code; `Layout ]

(* ------------------------------------------------------------------ *)
(* Determinism regression *)

let test_batch_determinism () =
  (* inline_depth > 0 exercises the per-run clone counter: under the
     old process-global counter, concurrent extractions interleave
     clone names and reports differ run to run *)
  List.iter
    (fun config ->
      let first = Report.Experiments.run_corpus ~config ~jobs:4 () in
      let second = Report.Experiments.run_corpus ~config ~jobs:4 () in
      Alcotest.check Alcotest.string "table1 byte-identical"
        (Report.Experiments.table1 first) (Report.Experiments.table1 second);
      Alcotest.check Alcotest.string "table2 byte-identical"
        (Report.Experiments.table2 ~timings:false first)
        (Report.Experiments.table2 ~timings:false second);
      Alcotest.check Alcotest.string "solverstats byte-identical"
        (Report.Experiments.solver_stats first)
        (Report.Experiments.solver_stats second))
    [
      Config.default;
      { Config.default with inline_depth = 1 };
      (* context-keyed cs-2 and its inlining twin: clone numbering and
         ⟨node, ctx⟩ minting must not depend on the schedule either *)
      { Config.default with inline_depth = 2 };
      { Config.default with inline_depth = 2; ctx_keyed = false };
    ]

let test_qcheck_pool_equivalence =
  QCheck.Test.make ~count:8 ~name:"random app: pooled engines = sequential naive"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Util.Prng.create seed in
      let spec = Corpus.Gen.random_spec ~name:(Printf.sprintf "QPool_%d" seed) rng in
      let analyze solver () =
        Analysis.analyze ~config:(with_solver solver Config.default) (Corpus.Gen.generate spec)
      in
      let reference = analyze Config.Naive () in
      let outcomes = Pool.run ~jobs:2 [ analyze Config.Naive; analyze Config.Interned ] in
      List.for_all
        (fun outcome ->
          Diff.is_empty (Diff.compare reference (Pool.value_exn outcome)))
        outcomes)

let suite =
  [
    Alcotest.test_case "ordered results" `Quick test_ordered_results;
    Alcotest.test_case "sequential path matches" `Quick test_sequential_path_matches;
    Alcotest.test_case "exception isolation" `Quick test_exception_isolation;
    Alcotest.test_case "edge cases" `Quick test_edge_cases;
    Alcotest.test_case "submit/wait/shutdown" `Quick test_submit_wait_shutdown;
    Alcotest.test_case "random apps engine x schedule matrix" `Quick test_random_matrix;
    Alcotest.test_case "malformed input isolation" `Quick test_malformed_input_isolation;
    Alcotest.test_case "injected failure isolation (corpus)" `Slow test_injected_failure_isolation;
    Alcotest.test_case "corpus engine x schedule matrix" `Slow test_corpus_matrix;
    Alcotest.test_case "batch determinism (jobs=4)" `Slow test_batch_determinism;
    QCheck_alcotest.to_alcotest test_qcheck_pool_equivalence;
  ]
