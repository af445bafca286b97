(* `paper`: the paper's own experiment from source.  The 20 corpus apps
   are rendered to ALite and layout-XML text in set-up; every op parses
   one app back (App.of_source), extracts, solves and computes its
   Table 1/2 rows at the default configuration, single-threaded.  It is
   the only workload that reads source, and extraction does most of
   its work. *)

open Common

let config = Gator.Config.default

(* Point reads per analyzed app: 20 apps of 64 read slots give
   query_us_p99 more than ten slots beyond it. *)
let reads_per_app = 64

type input = { spec : Corpus.Spec.t; src : Inputs.source; reads : Gator.Node.t array }

let analyze ~op (inp : input) =
  Span.with_ ~op "op" (fun () ->
      let app = Span.with_ "app.of_source" (fun () -> Inputs.of_source inp.src) in
      let t0 = Stats.now () in
      let graph = Span.with_ "extract" (fun () -> Gator.Extract.run config app) in
      let stats = Span.with_ "solve" (fun () -> Gator.Solve.run config app graph) in
      let write = Stats.now () -. t0 in
      let r = Gator.Analysis.make ~app ~config ~graph ~stats ~solve_seconds:write in
      let t1, t2 = Span.with_ "metrics" (fun () -> (Gator.Metrics.table1 r, Gator.Metrics.table2 r)) in
      (r, t1, t2, write))

let specs ctx =
  if ctx.smoke then List.map Inputs.spec [ "APV"; "NotePad"; "VuDroid"; "SuperGenPass" ]
  else Corpus.Apps.specs

(* Set-up: generate and render every app, then one untimed warm-up
   pass that also samples each app's read locations. *)
let build ctx () =
  let rng = Util.Prng.create ctx.seed in
  List.map
    (fun spec ->
      let src = Inputs.render (Corpus.Apps.generate spec) in
      let inp = { spec; src; reads = [||] } in
      let r, t1, t2, _ = analyze ~op:(-1) inp in
      let locs = Inputs.locations r.app in
      ({ inp with reads = Inputs.sample_nonempty rng r locs reads_per_app }, (t1, t2)))
    (specs ctx)

let expected_name ctx = if ctx.smoke then "paper-smoke" else "paper"

(* The pinned rows come from the generated apps themselves, never from
   their re-parsed text, so the check also covers the round trip. *)
let expected_rows ctx =
  Util.Json.List
    (List.map
       (fun spec ->
         let r = Gator.Analysis.analyze ~config (Corpus.Apps.generate spec) in
         Rows.table_row (Gator.Metrics.table1 r) (Gator.Metrics.table2 r))
       (specs ctx))

let run ctx =
  let setup_state, setup_s = setup ~k:3 (build ctx) in
  let inputs = Array.of_list (List.map fst setup_state) in
  let warm_rows = List.map snd setup_state in
  let n = Array.length inputs in
  let rng = Util.Prng.create (ctx.seed lxor 0x5eed) in
  let untraced = Stats.buf () and traced = Stats.buf () in
  let first = Hashtbl.create 32 and repeat_ok = ref true in
  let failed = ref 0 and attempted = ref 0 and op_id = ref 0 in
  let pass_counters = ref [] in
  let g0 = Gc.quick_stat () in
  Gcev.reset ();
  let pass p =
    let tracing = ctx.trace && p mod 2 = 1 in
    Span.enabled := tracing;
    let counters = ref [] in
    Array.iter
      (fun i ->
        let inp = inputs.(i) in
        incr attempted;
        incr op_id;
        match program (fun () -> analyze ~op:!op_id inp) with
        | exception _ -> incr failed
        | (r, t1, t2, write), dt ->
            let name = inp.spec.sp_name in
            record_op ~key:(name, 0) (1000. *. dt);
            Stats.push (if tracing then traced else untraced) (1000. *. dt);
            record_write ~key:(name, 0) (1000. *. write);
            Array.iteri
              (fun slot node ->
                let _, dq = program (fun () -> Gator.Analysis.values_at r node) in
                record_query ~key:(name, slot) (1e6 *. dq))
              inp.reads;
            (* bookkeeping, outside the program's time *)
            let key = Rows.table_row t1 t2 and c = Rows.counters r.stats in
            counters := (inp.spec.sp_name, r.stats) :: !counters;
            (match Hashtbl.find_opt first inp.spec.sp_name with
            | None -> Hashtbl.add first inp.spec.sp_name (key, c)
            | Some (k, c') -> if not (Util.Json.equal k key && Util.Json.equal c c') then repeat_ok := false);
            Calib.measure ();
            Gcev.poll ())
      (Inputs.order rng n);
    Span.enabled := false;
    if tracing && !pass_counters = [] then pass_counters := !counters;
    n
  in
  let min_ops = if ctx.trace then 4 * n else max 100 (Stats.min_samples 0.99 / reads_per_app) in
  let ops, passes = loop ~seconds:ctx.seconds ~min_ops pass in
  let rss_mb = Stats.peak_rss_mb () in
  let g1 = Gc.quick_stat () in
  (* Output checks, outside the timed region. *)
  let reparsed_match_spec =
    List.for_all2
      (fun (inp : input) (t1, _) -> Rows.matches_spec inp.spec t1)
      (Array.to_list inputs) warm_rows
  in
  let rows = Util.Json.List (List.map (fun (t1, t2) -> Rows.table_row t1 t2) warm_rows) in
  let checks =
    [
      ("paper.table1_equals_spec_quotas", reparsed_match_spec);
      ("paper.rows_equal_expected", Rows.matches_expected (expected_name ctx) rows);
      ("paper.counts_repeat_across_passes", !repeat_ok && passes >= 2);
    ]
  in
  let metrics =
    if not ctx.trace then
      end_to_end ~setup_s ~ops ~rss_mb
    else begin
      let aggs = Span.aggregate () in
      let bytes = Array.fold_left (fun acc inp -> acc + inp.src.s_bytes) 0 inputs in
      let parsed_mb = float_of_int (bytes * Stats.length traced / n) /. 1048576. in
      let sum f = float_of_int (List.fold_left (fun acc (_, s) -> acc + f s) 0 !pass_counters) in
      per_layer
        ([
           ("app.of_source_ms", span_self_ms aggs "app.of_source");
           ("app.source_mb_per_s", parsed_mb /. (span_self_sum aggs "app.of_source" /. 1000.));
           ("extract.ms", span_self_ms aggs "extract");
           ("extract.minor_mw", span_mw aggs "extract");
           ("solve.ms", span_self_ms aggs "solve");
           ("solve.minor_mw", span_mw aggs "solve");
           ("solve.op_applications", sum (fun s -> s.Gator.Solve.op_applications));
           ("solve.propagations", sum (fun s -> s.Gator.Solve.propagations));
           ("solve.union_calls", sum (fun s -> s.Gator.Solve.union_calls));
           ("solve.bitset_words", sum (fun s -> s.Gator.Solve.bitset_words));
           ("metrics.ms", span_self_ms aggs "metrics");
           ("trace.op_ms", span_total_ms aggs "op");
           ("trace.remainder_ms", span_self_ms aggs "op");
           ("trace.overhead_pct", overhead_pct ~untraced ~traced);
           ("trace.spans", float_of_int (Span.count ()));
           ("gc.stw_pause_ms", Gcev.pause_ms () /. float_of_int ops);
         ]
        @ gc_layers ~ops g0 g1)
    end
  in
  { attempted = !attempted; failed = !failed; checks; metrics }
