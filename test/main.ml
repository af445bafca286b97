(* Aggregated test entry point: `dune runtest` runs every suite. *)
let () =
  Alcotest.run "gator"
    [
      ("prng", Test_prng.suite);
      ("worklist", Test_worklist.suite);
      ("json", Test_json.suite);
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("alite-oracle", Test_alite_oracle.suite);
      ("roundtrip", Test_roundtrip.suite);
      ("hierarchy", Test_hierarchy.suite);
      ("typing", Test_typing.suite);
      ("wellformed", Test_wellformed.suite);
      ("axml", Test_axml.suite);
      ("layout", Test_layout.suite);
      ("framework", Test_framework.suite);
      ("graph", Test_graph.suite);
      ("extract", Test_extract.suite);
      ("inflate", Test_inflate.suite);
      ("solve", Test_solve.suite);
      ("rules", Test_rules.suite);
      ("intern", Test_intern.suite);
      ("shared-intern", Test_shared_intern.suite);
      ("ctx-keyed", Test_ctx_keyed.suite);
      ("incremental", Test_incremental.suite);
      ("fragments", Test_fragments.suite);
      ("query", Test_query.suite);
      ("server", Test_server.suite);
      ("interp", Test_interp.suite);
      ("oracle", Test_oracle.suite);
      ("sound", Test_sound.suite);
      ("corpus", Test_corpus.suite);
      ("gen", Test_gen.suite);
      ("metrics", Test_metrics.suite);
      ("report", Test_report.suite);
      ("pool", Test_pool.suite);
      ("stream", Test_stream.suite);
      ("project", Test_project.suite);
      ("misc", Test_misc.suite);
      ("pinned-views", Test_pinned_views.suite);
      ("store", Test_store.suite);
      ("isomorphism", Test_isomorphism.suite);
    ]
