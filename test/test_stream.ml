(* The streaming driver.  Unit tests pin Pool.Stream's contract on
   cheap integer tasks — every produced task consumed exactly once,
   sequential path in submission order, watermark backpressure bound,
   fault isolation, argument validation — and the end-to-end tests
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

let suite =
  [
    Alcotest.test_case "every task consumed once (jobs 1/4/8)" `Quick test_stream_all_consumed;
    Alcotest.test_case "sequential path preserves order" `Quick test_stream_sequential_order;
    Alcotest.test_case "high watermark bounds the backlog" `Quick test_stream_backpressure;
    Alcotest.test_case "empty stream" `Quick test_stream_empty;
    Alcotest.test_case "watermark validation" `Quick test_stream_invalid_watermarks;
    Alcotest.test_case "fault isolation on integer tasks" `Quick test_stream_fault_isolation;
    Alcotest.test_case "mid-stream failure spills one FAILED row" `Quick test_stream_failed_row;
    Alcotest.test_case "500-app stream = batch (jobs 1/4/8)" `Slow test_stream_matches_batch;
  ]
