(* Rewrites the expected-rows files in perfbench/expected/ (run from
   the repository root after a deliberate change to analysis results). *)

let regenerate () =
  List.iter
    (fun smoke ->
      let ctx = { Common.seed = 1; seconds = 1.; trace = false; smoke; nproc = 1 } in
      Rows.save_expected (Paper.expected_name ctx) (Paper.expected_rows ctx);
      Rows.save_expected (Modes.expected_name ctx) (Modes.expected_rows ctx);
      Rows.save_expected (Streaming.expected_name ctx) (Streaming.expected_digest ctx))
    [ false; true ]
