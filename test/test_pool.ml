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
  Alcotest.check Alcotest.bool "default_jobs >= 1" true (Pool.default_jobs () >= 1);
  Alcotest.check Alcotest.bool "default_jobs capped at 8" true (Pool.default_jobs () <= 8);
  match (Pool.run ~jobs:2 [ (fun () -> failwith "nope"); (fun () -> ()) ] : unit Pool.outcome list) with
  | [ bad; _ ] -> (
      match Pool.value_exn bad with
      | exception Failure _ -> ()
      | () -> Alcotest.fail "value_exn must raise on a failed outcome")
  | _ -> Alcotest.fail "wrong outcome count"

(* The one worker-count check every command line applies: the bounds
   are accepted, everything outside [1, max_jobs] is refused with the
   range in the message. *)
let test_check_jobs () =
  List.iter
    (fun jobs ->
      Alcotest.(check (result int string)) (Printf.sprintf "%d accepted" jobs) (Ok jobs)
        (Pool.check_jobs jobs))
    [ 1; 2; Pool.default_jobs (); Pool.max_jobs ];
  List.iter
    (fun jobs ->
      match Pool.check_jobs jobs with
      | Ok _ -> Alcotest.failf "%d accepted" jobs
      | Error msg ->
          Alcotest.(check string)
            (Printf.sprintf "%d refused" jobs)
            (Printf.sprintf "%d is outside [1, %d]" jobs Pool.max_jobs)
            msg)
    [ 0; -1; Pool.max_jobs + 1; 140; min_int; max_int ]

(* An oversized run fails to spawn its workers.  The workers it did
   start must be joined before the failure surfaces, or they would hold
   their domain slots and every later run in the process would fail. *)
let test_oversized_run_recovers () =
  let oversized = Pool.max_jobs + 8 in
  (match
     Pool.Stream.run ~jobs:oversized
       ~produce:(fun i -> if i < oversized then Some i else None)
       ~work:Fun.id
       ~consume:(fun _ _ _ -> ())
       ()
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "an oversized run spawned every worker");
  (match Pool.run ~jobs:oversized (List.init oversized (fun i () -> i)) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "an oversized batch spawned every worker");
  let outcomes = Pool.run ~jobs:2 (List.init 10 (fun i () -> i)) in
  Alcotest.check (Alcotest.list Alcotest.int) "a jobs:2 batch after the failure"
    (List.init 10 Fun.id) (List.map Pool.value_exn outcomes);
  let sum = ref 0 in
  let stats =
    Pool.Stream.run ~jobs:2
      ~produce:(fun i -> if i < 10 then Some i else None)
      ~work:(fun i -> i)
      ~consume:(fun _ _ o -> sum := !sum + Pool.value_exn o)
      ()
  in
  Alcotest.check Alcotest.int "a jobs:2 stream after the failure" 10 stats.Pool.Stream.st_consumed;
  Alcotest.check Alcotest.int "stream results" 45 !sum

(* Pool.run is a stream that collects in submission order.  Random task
   lists, some raising, with uneven work: every job count gives the
   sequential run's outcomes slot for slot, and no more than
   [min jobs n] distinct domains run tasks. *)
let test_qcheck_run_on_stream =
  QCheck.Test.make ~count:30 ~name:"Pool.run on the stream driver = sequential run"
    QCheck.(pair (oneofl [ 1; 2; 4 ]) (small_list (pair small_nat bool)))
    (fun (jobs, specs) ->
      let domains = Mutex.create () and seen = ref [] in
      let task (work, raises) () =
        Mutex.protect domains (fun () ->
            let self = (Domain.self () :> int) in
            if not (List.mem self !seen) then seen := self :: !seen);
        (* uneven work: a loop whose length varies per task *)
        let acc = ref work in
        for i = 1 to work * 2000 do
          acc := (!acc * 31) + i land 0xffff
        done;
        if raises then failwith (Printf.sprintf "task %d" work);
        !acc
      in
      let result o = Result.map_error (fun e -> e.Pool.err_exn) o.Pool.oc_result in
      let expected = List.map (fun spec -> result (Pool.run_task (task spec))) specs in
      seen := [];
      let got = List.map result (Pool.run ~jobs (List.map task specs)) in
      if got <> expected then QCheck.Test.fail_report "outcomes differ from the sequential run";
      let n = List.length specs in
      if List.length !seen > max 1 (min jobs n) then
        QCheck.Test.fail_reportf "%d domains ran tasks for jobs %d, %d tasks" (List.length !seen)
          jobs n;
      true)

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
    (* context-keyed cs-2 (interned default) and the naive reference's
       inlining cs-2: both must be deterministic across schedules, and
       byte-identical to each other at any jobs level *)
    @ [
        ("keyed-cs2", { Config.default with inline_depth = 2 });
        ("inlined-cs2", { Config.default with inline_depth = 2; solver = Config.Naive });
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
       and pooled inlining runs against a sequential inlining cs-2 *)
    let cs2 solver () =
      Analysis.analyze
        ~config:{ (with_solver solver Config.default) with inline_depth = 2 }
        (Corpus.Gen.generate spec)
    in
    let reference_cs2 =
      Analysis.analyze
        ~config:{ (with_solver Config.Naive Config.default) with inline_depth = 2 }
        (Corpus.Gen.generate spec)
    in
    List.iter
      (fun jobs ->
        let outcomes = Pool.run ~jobs [ cs2 Config.Interned; cs2 Config.Naive ] in
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
      (* context-keyed cs-2 and the naive reference's inlining cs-2:
         clone numbering and ⟨node, ctx⟩ minting must not depend on
         the schedule either *)
      { Config.default with inline_depth = 2 };
      { Config.default with inline_depth = 2; solver = Config.Naive };
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
    Alcotest.test_case "worker-count check" `Quick test_check_jobs;
    Alcotest.test_case "oversized run fails, later runs work" `Quick test_oversized_run_recovers;
    QCheck_alcotest.to_alcotest test_qcheck_run_on_stream;
    Alcotest.test_case "random apps engine x schedule matrix" `Quick test_random_matrix;
    Alcotest.test_case "malformed input isolation" `Quick test_malformed_input_isolation;
    Alcotest.test_case "injected failure isolation (corpus)" `Slow test_injected_failure_isolation;
    Alcotest.test_case "corpus engine x schedule matrix" `Slow test_corpus_matrix;
    Alcotest.test_case "batch determinism (jobs=4)" `Slow test_batch_determinism;
    QCheck_alcotest.to_alcotest test_qcheck_pool_equivalence;
  ]
