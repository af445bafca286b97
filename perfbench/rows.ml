(* Canonical, timing-free renderings of analysis results: what the
   output checks compare across passes and against the expected-rows
   files committed next to the benchmark. *)

module J = Util.Json
module M = Gator.Metrics

let avg = function None -> J.Null | Some f -> J.String (Printf.sprintf "%.6f" f)

(* Table 1 populations and Table 2 averages; Table 2's time column is
   left out. *)
let table_row (t1 : M.table1_row) (t2 : M.table2_row) =
  J.Obj
    [
      ("app", J.String t1.t1_app);
      ("classes", J.Int t1.t1_classes);
      ("methods", J.Int t1.t1_methods);
      ("layout_ids", J.Int t1.t1_layout_ids);
      ("view_ids", J.Int t1.t1_view_ids);
      ("views_inflated", J.Int t1.t1_views_inflated);
      ("views_allocated", J.Int t1.t1_views_allocated);
      ("listeners", J.Int t1.t1_listeners);
      ("activities", J.Int t1.t1_activities);
      ("inflate_ops", J.Int t1.t1_inflate_ops);
      ("findview_ops", J.Int t1.t1_findview_ops);
      ("addview_ops", J.Int t1.t1_addview_ops);
      ("setid_ops", J.Int t1.t1_setid_ops);
      ("setlistener_ops", J.Int t1.t1_setlistener_ops);
      ("receivers", avg t2.t2_receivers);
      ("parameters", avg t2.t2_parameters);
      ("results", avg t2.t2_results);
      ("listeners_avg", avg t2.t2_listeners);
    ]

(* Solver work counters: deterministic for a given input and config. *)
let counters (s : Gator.Solve.stats) =
  J.Obj
    [
      ("iterations", J.Int s.iterations);
      ("propagations", J.Int s.propagations);
      ("op_applications", J.Int s.op_applications);
      ("union_calls", J.Int s.union_calls);
      ("bitset_words", J.Int s.bitset_words);
      ("interned_values", J.Int s.interned_values);
      ("interned_nodes", J.Int s.interned_nodes);
      ("scc_count", J.Int s.scc_count);
      ("ctx_keys", J.Int s.ctx_keys);
    ]

(* Table 1 against the spec's quotas: the generator emits exactly the
   requested populations. *)
let matches_spec (spec : Corpus.Spec.t) (t : M.table1_row) =
  spec.sp_classes = t.t1_classes && spec.sp_methods = t.t1_methods
  && spec.sp_layouts = t.t1_layout_ids && spec.sp_view_ids = t.t1_view_ids
  && spec.sp_inflated_nodes = t.t1_views_inflated
  && spec.sp_view_allocs = t.t1_views_allocated
  && spec.sp_listener_allocs = t.t1_listeners && spec.sp_activities = t.t1_activities
  && spec.sp_layouts = t.t1_inflate_ops && spec.sp_findview_ops = t.t1_findview_ops
  && spec.sp_addview_ops = t.t1_addview_ops && spec.sp_setid_ops = t.t1_setid_ops
  && spec.sp_setlistener_ops = t.t1_setlistener_ops

(* Expected-rows files live in the benchmark's [expected/] directory,
   found relative to the executable's source checkout root (the cwd). *)
let expected_path name = Filename.concat "perfbench/expected" (name ^ ".json")

let load_expected name =
  let path = expected_path name in
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> ( match J.of_string text with Ok j -> Some j | Error _ -> None)
  | exception Sys_error _ -> None

let save_expected name j =
  let oc = open_out_bin (expected_path name) in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (J.to_string ~pretty:true j);
      output_char oc '\n')

let matches_expected name actual =
  match load_expected name with Some j -> J.equal j actual | None -> false

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" (List.sort String.compare lines)))
