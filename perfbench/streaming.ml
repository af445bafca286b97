(* `stream`: Report.Experiments.run_stream over seeded Gen.stream_spec
   apps at jobs = nproc.  The apps are small, so most of the time goes
   to the pool, generation and stop-the-world GC contention.  No other
   workload uses Pool.  One pass streams [apps] apps; every pass of a
   run streams the same seeded apps, so its sorted rows must repeat. *)

open Common
module J = Util.Json

let apps ctx = if ctx.smoke then 40 else 1000

(* Split the timings column off a row: the task wall time, and the row
   as [~timings:false] would have printed it. *)
let split_row line =
  match J.of_string line with
  | Ok (J.Obj fields) ->
      let seconds = match List.assoc_opt "seconds" fields with Some (J.Float f) -> f | Some (J.Int n) -> float_of_int n | _ -> nan in
      let ok = List.assoc_opt "ok" fields = Some (J.Bool true) in
      (ok, seconds, J.to_string (J.Obj (List.remove_assoc "seconds" fields)))
  | _ -> (false, nan, line)

let check_seed = 7

let expected_name ctx = if ctx.smoke then "stream-smoke" else "stream"

let sequential_digest ~seed ~apps =
  let rows = ref [] in
  ignore
    (Report.Experiments.run_stream ~jobs:1 ~timings:false ~seed ~apps
       ~emit:(fun row -> rows := row :: !rows)
       ());
  Rows.digest_lines !rows

let expected_digest ctx = J.String (sequential_digest ~seed:check_seed ~apps:(apps ctx))

(* The traced pass: the same stream driven through Pool.Stream directly,
   with spans around generation, extraction, solving and the rows, and
   the time each task waited in the queue. *)
let traced_pass ~jobs ~seed ~apps ~wait_ms ~rows ~attempted ~failed =
  let config = Gator.Config.default in
  let stats =
    Pool.Stream.run ~jobs
      ~produce:(fun i -> if i < apps then Some (i, Corpus.Gen.stream_spec ~seed i, Stats.now ()) else None)
      ~work:(fun (i, spec, produced) ->
        let started = Stats.now () in
        Span.with_ ~op:i "pool.task" (fun () ->
            let app = Span.with_ "gen" (fun () -> Corpus.Gen.generate spec) in
            let graph = Span.with_ "extract" (fun () -> Gator.Extract.run config app) in
            let stats = Span.with_ "solve" (fun () -> Gator.Solve.run config app graph) in
            let r = Gator.Analysis.make ~app ~config ~graph ~stats ~solve_seconds:0. in
            let row =
              Span.with_ "metrics" (fun () ->
                  Report.Experiments.jsonl_row ~timings:false
                    {
                      cs_spec = spec;
                      cs_seconds = 0.;
                      cs_run =
                        Ok
                          {
                            cr_spec = spec;
                            cr_analysis = r;
                            cr_table1 = Gator.Metrics.table1 r;
                            cr_table2 = Gator.Metrics.table2 r;
                          };
                    })
            in
            (started -. produced, row)))
      ~consume:(fun _ _ outcome ->
        incr attempted;
        match outcome.Pool.oc_result with
        | Ok (wait, row) ->
            Stats.push wait_ms (1000. *. wait);
            rows := row :: !rows
        | Error _ -> incr failed)
      ()
  in
  stats

let run ctx =
  (* exactly nproc domains: a larger count would measure oversubscription *)
  let jobs = ctx.nproc in
  let n = apps ctx and seed = ctx.seed in
  let failed = ref 0 and attempted = ref 0 in
  let pass_digest = ref None and repeat_ok = ref true in
  let steals = ref 0 and max_queued = ref 0 in
  let stream_pass ~jobs =
    let lines = ref [] in
    let st, dt =
      program (fun () ->
          Report.Experiments.run_stream ~jobs ~timings:true ~seed ~apps:n
            ~emit:(fun line -> lines := line :: !lines)
            ())
    in
    (* Bookkeeping, outside the program's time: split the timings off
       the raw rows and digest them.  A stream serves no reads, so its
       read latency is the per-app task latency itself, in microseconds:
       decoding rows was tried and its timings swung by half between
       runs. *)
    let rows =
      List.map
        (fun line ->
          let ok, seconds, row = split_row line in
          incr attempted;
          if ok then begin
            record_op (1000. *. seconds);
            record_query (1e6 *. seconds)
          end
          else incr failed;
          row)
        !lines
    in
    steals := !steals + st.st_steals;
    max_queued := max !max_queued st.st_max_queued;
    let d = Rows.digest_lines rows in
    (match !pass_digest with None -> pass_digest := Some d | Some d' -> if d <> d' then repeat_ok := false);
    Calib.measure ();
    dt
  in
  let (), setup_s = setup ~k:5 (fun () -> ignore (stream_pass ~jobs)) in
  attempted := 0;
  failed := 0;
  let untraced = Stats.buf () and traced = Stats.buf () and jobs1 = Stats.buf () in
  let wait_ms = Stats.buf () and traced_failed = ref 0 and mirror_ok = ref true in
  let g0 = Gc.quick_stat () in
  Gcev.reset ();
  let pass p =
    if not ctx.trace then begin
      record_write (1000. *. stream_pass ~jobs);
      n
    end
    else begin
      (match p mod 3 with
      | 0 -> Stats.push untraced (stream_pass ~jobs)
      | 1 ->
          let rows = ref [] in
          Span.enabled := true;
          let t0 = Stats.now () in
          let st = traced_pass ~jobs ~seed ~apps:n ~wait_ms ~rows ~attempted ~failed:traced_failed in
          Stats.push traced (Stats.now () -. t0);
          Span.enabled := false;
          steals := !steals + st.st_steals;
          max_queued := max !max_queued st.st_max_queued;
          if Some (Rows.digest_lines !rows) <> !pass_digest then mirror_ok := false
      | _ -> Stats.push jobs1 (stream_pass ~jobs:1));
      Gcev.poll ();
      n
    end
  in
  let min_ops = if ctx.trace then 6 * n else max (Stats.min_samples 0.99) (2 * n) in
  let ops, passes = loop ~seconds:ctx.seconds ~min_ops pass in
  let rss_mb = Stats.peak_rss_mb () in
  let g1 = Gc.quick_stat () in
  let checks =
    [
      ("stream.check_stream_digest_equals_expected",
        Rows.matches_expected (expected_name ctx) (expected_digest ctx));
      ( "stream.digest_equals_sequential",
        Some (sequential_digest ~seed ~apps:n) = !pass_digest );
      ("stream.digest_repeats_across_passes", !repeat_ok && passes >= 2);
      ("stream.traced_mirror_matches", !mirror_ok && !traced_failed = 0);
    ]
  in
  let metrics =
    if not ctx.trace then end_to_end ~setup_s ~ops ~rss_mb
    else begin
      let aggs = Span.aggregate () in
      let apps_per_s b = float_of_int n /. Stats.median b in
      per_layer
        ([
           ("gen.ms", span_self_ms aggs "gen");
           ("extract.ms", span_self_ms aggs "extract");
           ("extract.minor_mw", span_mw aggs "extract");
           ("solve.ms", span_self_ms aggs "solve");
           ("solve.minor_mw", span_mw aggs "solve");
           ("metrics.ms", span_self_ms aggs "metrics");
           ("pool.queue_wait_ms", Stats.sum wait_ms /. float_of_int (max 1 (Stats.length wait_ms)));
           ("pool.task_ms", span_total_ms aggs "pool.task");
           ("pool.steals", float_of_int !steals /. float_of_int passes);
           ("pool.max_queued", float_of_int !max_queued);
           ("pool.scaling", apps_per_s untraced /. apps_per_s jobs1);
           ("pool.scaling_base_apps_per_s", apps_per_s jobs1);
           ("trace.op_ms", span_total_ms aggs "pool.task");
           ("trace.remainder_ms", span_self_ms aggs "pool.task");
           ("trace.overhead_pct", overhead_pct ~untraced ~traced);
           ("trace.spans", float_of_int (Span.count ()));
           ("gc.stw_pause_ms", Gcev.pause_ms () /. float_of_int ops);
         ]
        @ gc_layers ~ops g0 g1)
    end
  in
  { attempted = !attempted; failed = !failed + !traced_failed; checks; metrics }
