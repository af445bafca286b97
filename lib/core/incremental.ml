(* Incremental analysis orchestration: solve-and-capture, then warm
   re-solves of patched apps over the shared interner. *)

let analyze_solved ?(config = Config.default) app =
  let start = Unix.gettimeofday () in
  let graph = Extract.run config app in
  let stats, solved = Solve.run_solved config app graph in
  let solve_seconds = Unix.gettimeofday () -. start in
  (Analysis.make ~app ~config ~graph ~stats ~solve_seconds, solved)

type script_source = From_delta | From_diff of string

type assembly = {
  a_graph : Graph.t;
  a_reextracted : int;
  a_methods : int;
  a_freeze : Graph.freeze_report;
  a_shape : Solve.shape;
  a_edits : Solve.edit_script;
  a_script : script_source;
}

let assemble ?(config = Config.default) ~prev (app : Framework.App.t) =
  let declined =
    if config <> prev.Solve.sd_config then Some "configuration changed"
    else if config.Config.inline_depth > 0 then
      Some "inline depth > 0: a method's slice holds its inlined callees"
    else if Graph.has_top prev.sd_graph then Some "unknown-id markers present"
    else if app.package != prev.sd_package then Some "the layout package is not the previous solve's"
    else None
  in
  match declined with
  | Some reason -> Error reason
  | None ->
      Result.map
        (fun (graph, edited) ->
          let freeze = Graph.freeze_delta graph ~prev:prev.sd_graph ~edited in
          (match freeze.fz_path with
          | Graph.Full reason ->
              Logs.info (fun m -> m "incremental: delta freeze declined (%s); freezing in full" reason)
          | path ->
              Logs.info (fun m ->
                  m "incremental: %a, %d condensed rows rebuilt" Graph.pp_freeze_path path freeze.fz_rows));
          let old_ = Solve.shape_of_solved prev and new_ = Solve.shape_of_graph graph in
          let edits, script =
            match Diff.delta_edit_script ~prev:prev.sd_graph ~graph ~edited ~freeze ~old_ ~new_ with
            | Ok edits -> (edits, From_delta)
            | Error reason -> (Diff.edit_script ~old_ ~new_, From_diff reason)
          in
          {
            a_graph = graph;
            a_reextracted = Array.fold_left (fun n e -> if e then n + 1 else n) 0 edited;
            a_methods = Array.length edited;
            a_freeze = freeze;
            a_shape = new_;
            a_edits = edits;
            a_script = script;
          })
        (Extract.reextract config app ~prev:prev.sd_graph)

let route_fields ?fallback (route : (assembly, string) result) =
  let script source =
    match (fallback, source) with
    | Some reason, _ -> Printf.sprintf "unused (full solve: %s)" reason
    | None, From_delta -> "freeze delta"
    | None, From_diff reason -> Printf.sprintf "shape diff (%s)" reason
  in
  match route with
  | Ok a ->
      [
        ("assembly", Printf.sprintf "%d of %d methods re-extracted" a.a_reextracted a.a_methods);
        ("freeze", Fmt.str "%a" Graph.pp_freeze_path a.a_freeze.fz_path);
        ("edit_script", script a.a_script);
      ]
  | Error reason ->
      [
        ("assembly", Printf.sprintf "declined (%s)" reason);
        ("freeze", "full freeze");
        ("edit_script", script (From_diff "full re-extraction"));
      ]

let analyze_patch ?(config = Config.default) ~prev app =
  let start = Unix.gettimeofday () in
  let assembly = assemble ~config ~prev app in
  let graph, new_shape, edits =
    match assembly with
    | Ok a -> (a.a_graph, a.a_shape, a.a_edits)
    | Error reason ->
        Logs.info (fun m -> m "incremental: fragment reuse declined (%s); re-extracting in full" reason);
        (* Extraction over the previous solve's interner keeps every
           shared node, value and view id stable — the whole scheme
           rests on it. *)
        let graph = Extract.run ~interner:(Solve.solved_interner prev) config app in
        let new_shape = Solve.shape_of_graph graph in
        (graph, new_shape, Diff.edit_script ~old_:(Solve.shape_of_solved prev) ~new_:new_shape)
  in
  let stats, solved = Solve.run_incremental ~prev ~edits ~new_shape config app graph in
  let solve_seconds = Unix.gettimeofday () -. start in
  (Analysis.make ~app ~config ~graph ~stats ~solve_seconds, solved, assembly)

let analyze_incremental ?config ~prev app =
  let result, solved, _ = analyze_patch ?config ~prev app in
  (result, solved)
