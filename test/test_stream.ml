(* The streaming driver.  Unit tests pin Pool.Stream's contract on
   cheap integer tasks — every produced task consumed exactly once,
   sequential path in submission order, watermark backpressure bound,
   the calling thread as worker 0, fault isolation, argument
   validation — and the end-to-end tests
   prove the property the subsystem exists for: a long generated
   stream spills exactly the rows a one-shot batch of the same specs
   would, at any job count, failures included. *)

(* ------------------------------------------------------------------ *)
(* Pool.Stream on integer tasks *)

let collect_run ~jobs ?high ?low ~n ?(work = fun x -> x * x) () =
  let got = ref [] in
  let stats =
    Pool.Stream.run ~jobs ?high ?low
      ~produce:(fun i -> if i < n then Some i else None)
      ~work
      ~consume:(fun i payload outcome -> got := (i, payload, outcome) :: !got)
      ()
  in
  (stats, List.rev !got)

let test_stream_all_consumed () =
  List.iter
    (fun jobs ->
      let stats, got = collect_run ~jobs ~n:200 () in
      Alcotest.check Alcotest.int "produced" 200 stats.Pool.Stream.st_produced;
      Alcotest.check Alcotest.int "consumed" 200 stats.Pool.Stream.st_consumed;
      Alcotest.check Alcotest.int "no failures" 0 stats.Pool.Stream.st_failed;
      Alcotest.check Alcotest.int "every task consumed once" 200 (List.length got);
      (* indexes, payloads, and results all line up *)
      let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) got in
      List.iteri
        (fun i (idx, payload, outcome) ->
          Alcotest.check Alcotest.int "index" i idx;
          Alcotest.check Alcotest.int "payload" i payload;
          Alcotest.check Alcotest.int "result" (i * i) (Pool.value_exn outcome))
        sorted)
    [ 1; 4; 8 ]

(* jobs <= 1 is the exact sequential loop: completion order IS
   submission order, nothing queues, no stealing. *)
let test_stream_sequential_order () =
  let stats, got = collect_run ~jobs:1 ~n:50 () in
  Alcotest.(check (list int)) "submission order" (List.init 50 Fun.id)
    (List.map (fun (i, _, _) -> i) got);
  Alcotest.check Alcotest.int "one task in flight at a time" 1 stats.Pool.Stream.st_max_queued;
  Alcotest.check Alcotest.int "nothing stolen" 0 stats.Pool.Stream.st_steals

let test_stream_backpressure () =
  let stats, got = collect_run ~jobs:4 ~high:5 ~low:2 ~n:300 () in
  Alcotest.check Alcotest.int "all consumed" 300 (List.length got);
  Alcotest.check Alcotest.bool "backlog bounded by high watermark" true
    (stats.Pool.Stream.st_max_queued <= 5)

let test_stream_empty () =
  let stats, got = collect_run ~jobs:4 ~n:0 () in
  Alcotest.check Alcotest.int "nothing produced" 0 stats.Pool.Stream.st_produced;
  Alcotest.check Alcotest.int "nothing consumed" 0 stats.Pool.Stream.st_consumed;
  Alcotest.(check (list unit)) "no outcomes" [] (List.map (fun _ -> ()) got)

let test_stream_invalid_watermarks () =
  List.iter
    (fun (high, low) ->
      match
        Pool.Stream.run ~jobs:2 ~high ~low
          ~produce:(fun _ -> None)
          ~work:Fun.id
          ~consume:(fun _ _ _ -> ())
          ()
      with
      | _ -> Alcotest.failf "high=%d low=%d accepted" high low
      | exception Invalid_argument _ -> ())
    [ (4, 4); (4, 5); (0, 0); (3, -1) ]

(* A raising task becomes one Error outcome; the stream keeps going. *)
let test_stream_fault_isolation () =
  List.iter
    (fun jobs ->
      let work x = if x = 57 then failwith "boom" else x * x in
      let stats, got = collect_run ~jobs ~n:120 ~work () in
      Alcotest.check Alcotest.int "all consumed" 120 stats.Pool.Stream.st_consumed;
      Alcotest.check Alcotest.int "one failure" 1 stats.Pool.Stream.st_failed;
      List.iter
        (fun (i, _, outcome) ->
          match outcome.Pool.oc_result with
          | Ok r -> Alcotest.check Alcotest.int "survivor result" (i * i) r
          | Error e ->
              Alcotest.check Alcotest.int "only task 57 failed" 57 i;
              Alcotest.check Alcotest.bool "exception captured" true
                (String.length e.Pool.err_exn > 0))
        got)
    [ 1; 4 ]

(* Busy-wait, so a task holds its domain for [us] microseconds. *)
let spin_us us =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < us *. 1e-6 do
    ()
  done

(* The calling thread is worker 0: at jobs 2 and 4, tasks run on at
   most [jobs] domains, [consume] always runs on the caller, the
   caller runs tasks itself once production outpaces the workers (a
   200 us spin per task), and in-flight work stays within
   [high + jobs], checked inside [produce]. *)
let test_stream_caller_is_worker_0 () =
  let caller = Domain.self () in
  List.iter
    (fun jobs ->
      let high, _ = Result.get_ok (Pool.Stream.watermarks ~jobs ()) in
      let lock = Mutex.create () and seen = ref [] in
      let produced = ref 0 and consumed = ref 0 and in_flight = ref 0 in
      let consumed_elsewhere = ref 0 in
      let stats =
        Pool.Stream.run ~jobs
          ~produce:(fun i ->
            if i >= 150 then None
            else begin
              incr produced;
              in_flight := max !in_flight (!produced - !consumed);
              Some i
            end)
          ~work:(fun i ->
            let d = Domain.self () in
            Mutex.protect lock (fun () -> if not (List.mem d !seen) then seen := d :: !seen);
            spin_us 200.;
            i)
          ~consume:(fun _ _ _ ->
            if Domain.self () <> caller then incr consumed_elsewhere;
            incr consumed)
          ()
      in
      let name what = Printf.sprintf "jobs=%d: %s" jobs what in
      Alcotest.check Alcotest.int (name "all consumed") 150 stats.Pool.Stream.st_consumed;
      Alcotest.check Alcotest.bool (name "at most jobs domains run tasks") true
        (List.length !seen <= jobs);
      Alcotest.check Alcotest.int (name "consume runs on the caller") 0 !consumed_elsewhere;
      Alcotest.check Alcotest.bool (name "the caller runs tasks") true (List.mem caller !seen);
      Alcotest.check Alcotest.bool
        (Printf.sprintf "jobs=%d: in flight %d <= high + jobs" jobs !in_flight)
        true
        (!in_flight <= high + jobs))
    [ 2; 4 ]

(* Worker 0's faults are isolated like any worker's: a task that
   raises exactly when it runs on the caller's domain becomes an
   [Error] outcome, every other task is [Ok], and the stream still
   finishes with its workers joined (a later stream can spawn). *)
let test_stream_caller_fault_isolation () =
  let caller = Domain.self () in
  List.iter
    (fun jobs ->
      let on_caller = ref 0 in
      let work x =
        spin_us 200.;
        if Domain.self () = caller then begin
          incr on_caller;
          failwith "caller task"
        end
        else x * x
      in
      let stats, got = collect_run ~jobs ~n:120 ~work () in
      let name what = Printf.sprintf "jobs=%d: %s" jobs what in
      Alcotest.check Alcotest.bool (name "the caller ran tasks") true (!on_caller > 0);
      Alcotest.check Alcotest.int (name "all consumed") 120 stats.Pool.Stream.st_consumed;
      Alcotest.check Alcotest.int (name "st_failed counts the caller's tasks") !on_caller
        stats.Pool.Stream.st_failed;
      let errors =
        List.filter (fun (_, _, outcome) -> Result.is_error outcome.Pool.oc_result) got
      in
      Alcotest.check Alcotest.int (name "one Error per caller task") !on_caller
        (List.length errors);
      List.iter
        (fun (i, _, outcome) ->
          match outcome.Pool.oc_result with
          | Ok r -> Alcotest.check Alcotest.int (name "worker result") (i * i) r
          | Error e ->
              Alcotest.check Alcotest.string (name "captured") {|Failure("caller task")|}
                e.Pool.err_exn)
        got;
      let after, _ = collect_run ~jobs ~n:20 () in
      Alcotest.check Alcotest.int (name "a later stream runs") 20 after.Pool.Stream.st_consumed)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Streaming ingestion = batch, row for row *)

let sorted_rows rows = List.sort compare rows

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let batch_rows ~seed ~apps =
  let specs = List.init apps (Corpus.Gen.stream_spec ~seed) in
  List.map
    (Report.Experiments.jsonl_row ~timings:false)
    (Report.Experiments.run_specs ~jobs:1 specs)

let stream_rows ?fail_apps ~seed ~apps ~jobs () =
  let rows = ref [] in
  let stats =
    Report.Experiments.run_stream ~jobs ~timings:false ?fail_apps ~seed ~apps
      ~emit:(fun row -> rows := row :: !rows)
      ()
  in
  (stats, List.rev !rows)

(* 500 generated apps through the stream at jobs 1/4/8: identical rows
   to the one-shot batch (order-normalized — the stream spills in
   completion order), with the backlog bounded by the default high
   watermark. *)
let test_stream_matches_batch () =
  let seed = 2026 and apps = 500 in
  let reference = sorted_rows (batch_rows ~seed ~apps) in
  List.iter
    (fun jobs ->
      let stats, rows = stream_rows ~seed ~apps ~jobs () in
      Alcotest.check Alcotest.int
        (Printf.sprintf "jobs=%d: produced" jobs)
        apps stats.Pool.Stream.st_produced;
      Alcotest.check Alcotest.int
        (Printf.sprintf "jobs=%d: consumed" jobs)
        apps stats.Pool.Stream.st_consumed;
      Alcotest.check Alcotest.int (Printf.sprintf "jobs=%d: failed" jobs) 0
        stats.Pool.Stream.st_failed;
      Alcotest.check Alcotest.bool
        (Printf.sprintf "jobs=%d: backlog bounded" jobs)
        true
        (stats.Pool.Stream.st_max_queued <= max (2 * jobs) 4);
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d: rows = batch rows" jobs)
        reference (sorted_rows rows))
    [ 1; 4; 8 ]

(* A mid-stream failure yields exactly one FAILED row; every other app
   still gets its normal row and the stream runs to completion. *)
let test_stream_failed_row () =
  let seed = 7 and apps = 60 in
  let victim = (Corpus.Gen.stream_spec ~seed 23).Corpus.Spec.sp_name in
  let stats, rows = stream_rows ~fail_apps:[ victim ] ~seed ~apps ~jobs:4 () in
  Alcotest.check Alcotest.int "stream completed" apps stats.Pool.Stream.st_consumed;
  Alcotest.check Alcotest.int "one row per app" apps (List.length rows);
  let failed = List.filter (fun row -> contains row {|"ok":false|}) rows in
  Alcotest.check Alcotest.int "exactly one FAILED row" 1 (List.length failed);
  let row = List.hd failed in
  Alcotest.check Alcotest.bool "row names the victim" true (contains row victim);
  Alcotest.check Alcotest.bool "row carries FAILED" true (contains row "FAILED")

(* The row printer's bytes, pinned for an analyzed and a failed spec,
   with and without timings: {!Report.Experiments.jsonl_of_tables}
   on a batch result's tables gives {!Report.Experiments.jsonl_row}'s
   bytes, both give the rows below, and a stream of the same specs
   prints them too. *)
let test_row_bytes () =
  let module E = Report.Experiments in
  let seed = 7 in
  let victim = (Corpus.Gen.stream_spec ~seed 4).Corpus.Spec.sp_name in
  let specs = [ Corpus.Gen.stream_spec ~seed 3; Corpus.Gen.stream_spec ~seed 4 ] in
  let ok_row =
    String.concat ","
      [
        {|{"app":"Stream_7_3","ok":true,"classes":10,"methods":15,"layout_ids":3,"view_ids":8|};
        {|"views_inflated":11,"views_allocated":3,"listeners":4,"inflate_ops":3,"findview_ops":3|};
        {|"addview_ops":3,"setid_ops":3,"setlistener_ops":3,"receivers":1.4444444444444444|};
        {|"parameters":1.0,"results":1.6666666666666667,"listeners_avg":1.3333333333333333|};
      ]
  and failed_row =
    {|{"app":"Stream_7_4","ok":false,"error":"FAILED: Failure(\"injected failure in Stream_7_4\")"|}
  in
  let close timings row = row ^ if timings then {|,"seconds":0.125}|} else "}" in
  List.iter2
    (fun (result : E.corpus_result) row ->
      let result = { result with cs_seconds = 0.125 } in
      let tables = Result.map (fun run -> (run.E.cr_table1, run.E.cr_table2)) result.cs_run in
      List.iter
        (fun timings ->
          let printed = E.jsonl_of_tables ~timings result.cs_spec result.cs_seconds tables in
          Alcotest.check Alcotest.string "printer = jsonl_row" (E.jsonl_row ~timings result) printed;
          Alcotest.check Alcotest.string "pinned row" (close timings row) printed)
        [ false; true ])
    (E.run_specs ~jobs:1 ~fail_apps:[ victim ] specs)
    [ ok_row; failed_row ];
  let _, rows = stream_rows ~fail_apps:[ victim ] ~seed ~apps:6 ~jobs:2 () in
  List.iter
    (fun row ->
      Alcotest.check Alcotest.bool "the stream prints the pinned row" true
        (List.mem (close false row) rows))
    [ ok_row; failed_row ]

let suite =
  [
    Alcotest.test_case "every task consumed once (jobs 1/4/8)" `Quick test_stream_all_consumed;
    Alcotest.test_case "sequential path preserves order" `Quick test_stream_sequential_order;
    Alcotest.test_case "high watermark bounds the backlog" `Quick test_stream_backpressure;
    Alcotest.test_case "empty stream" `Quick test_stream_empty;
    Alcotest.test_case "watermark validation" `Quick test_stream_invalid_watermarks;
    Alcotest.test_case "fault isolation on integer tasks" `Quick test_stream_fault_isolation;
    Alcotest.test_case "the caller is worker 0 (jobs 2/4)" `Quick test_stream_caller_is_worker_0;
    Alcotest.test_case "a raising task on the caller is isolated" `Quick
      test_stream_caller_fault_isolation;
    Alcotest.test_case "row printer bytes, batch and stream" `Quick test_row_bytes;
    Alcotest.test_case "mid-stream failure spills one FAILED row" `Quick test_stream_failed_row;
    Alcotest.test_case "500-app stream = batch (jobs 1/4/8)" `Slow test_stream_matches_batch;
  ]
