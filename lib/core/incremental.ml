(* Incremental analysis orchestration: solve-and-capture, then warm
   re-solves of patched apps over the shared interner. *)

let analyze_solved ?(config = Config.default) ?fallback app =
  let start = Unix.gettimeofday () in
  let graph = Extract.run config app in
  let stats, solved = Solve.run_solved ?fallback config app graph in
  let solve_seconds = Unix.gettimeofday () -. start in
  (Analysis.make ~app ~config ~graph ~stats ~solve_seconds, solved)

type assembly = {
  a_graph : Graph.t;
  a_reextracted : int;
  a_methods : int;
  a_freeze : Graph.freeze_report;
}

let assemble ?(config = Config.default) ~prev (app : Framework.App.t) =
  let declined =
    if config <> prev.Solve.sd_config then Some "configuration changed"
    else if config.Config.inline_depth > 0 then
      Some "inline depth > 0: a method's slice holds its inlined callees"
    else if Graph.fragments prev.sd_graph = None then Some "the previous solve recorded no fragments"
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
          {
            a_graph = graph;
            a_reextracted = Array.fold_left (fun n e -> if e then n + 1 else n) 0 edited;
            a_methods = Array.length edited;
            a_freeze = freeze;
          })
        (Extract.reextract config app ~prev:prev.sd_graph)

let analyze_incremental ?(config = Config.default) ~prev app =
  let start = Unix.gettimeofday () in
  let graph =
    match assemble ~config ~prev app with
    | Ok a -> a.a_graph
    | Error reason ->
        Logs.info (fun m -> m "incremental: fragment reuse declined (%s); re-extracting in full" reason);
        (* Extraction over the previous solve's interner keeps every
           shared node, value and view id stable — the whole scheme
           rests on it. *)
        Extract.run ~interner:(Solve.solved_interner prev) config app
  in
  let new_shape = Solve.shape_of_graph graph in
  let edits = Diff.edit_script ~old_:(Solve.shape_of_solved prev) ~new_:new_shape in
  let stats, solved = Solve.run_incremental ~prev ~edits ~new_shape config app graph in
  let solve_seconds = Unix.gettimeofday () -. start in
  (Analysis.make ~app ~config ~graph ~stats ~solve_seconds, solved)

(* The CLI's --incremental mode must never fall back to a full solve
   silently: a warm-start refusal is invisible in the output tables
   (answers are identical either way), so the only honest channel is a
   warning on stderr.  Rendering lives here so tests can pin the exact
   message without driving the binary. *)
let refusal_warning (r : Analysis.t) =
  match r.Analysis.stats.Solve.fallback with
  | None -> None
  | Some reason ->
      Some (Printf.sprintf "incremental: warm start refused (%s); ran a full solve" reason)
