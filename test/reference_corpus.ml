(* The corpus batch through the rule-table reference: the results
   [Report.Experiments.run_corpus] builds, with [Analysis.reference] in
   place of [Analysis.analyze], on the same worker pool.  Each task
   generates its own app, so nothing mutable crosses domains. *)
open Gator

let run ?(config = Config.default) ~jobs () =
  let task spec =
    let r = Analysis.reference ~config (Corpus.Gen.generate spec) in
    {
      Report.Experiments.cr_spec = spec;
      cr_analysis = r;
      cr_table1 = Metrics.table1 r;
      cr_table2 = Metrics.table2 r;
    }
  in
  List.map2
    (fun spec (outcome : _ Pool.outcome) ->
      {
        Report.Experiments.cs_spec = spec;
        cs_seconds = outcome.oc_seconds;
        cs_run = Result.map_error (fun e -> e.Pool.err_exn) outcome.oc_result;
      })
    Corpus.Apps.specs
    (Pool.map ~jobs task Corpus.Apps.specs)
