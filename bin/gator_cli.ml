(* Command-line frontend: analyze one or more ALite programs (files or
   project directories) and print the computed GUI models.  With
   several inputs the analyses run on a worker-domain pool (--jobs);
   an input that fails to load or crashes its analysis renders as a
   FAILED section while the other inputs still produce output. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let layout_name_of_path path = Filename.remove_extension (Filename.basename path)

let load code_path layout_paths =
  if Sys.is_directory code_path then Project.load code_path
  else
    let code = read_file code_path in
    let layouts =
      List.map (fun path -> (layout_name_of_path path, read_file path)) layout_paths
    in
    Framework.App.of_source ~name:(layout_name_of_path code_path) ~code ~layouts

(* The whole per-input pipeline, rendered to a string so batch output
   stays in submission order no matter which worker finishes first.
   Every failure mode — unreadable file, parse error, failed
   diagnostics, analysis crash — is an [Error]. *)
let analyze_one ~dump_dot ~show_interactions ~show_diagnostics ~run_dynamic ~json code_path
    layout_paths =
  match load code_path layout_paths with
  | Error e -> Error e
  | Ok app ->
      let buf = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer buf in
      let diagnostics_clean =
        if not show_diagnostics then true
        else begin
          let diagnostics = Framework.App.diagnostics app in
          List.iter (fun d -> Fmt.pf ppf "%a@." Jir.Wellformed.pp_diagnostic d) diagnostics;
          Jir.Wellformed.is_clean diagnostics
        end
      in
      if not diagnostics_clean then begin
        Format.pp_print_flush ppf ();
        Error (Buffer.contents buf ^ "diagnostics reported errors")
      end
      else begin
        let r = Gator.Analysis.analyze app in
        if json then Buffer.add_string buf (Gator.Export.to_string ~pretty:true r ^ "\n")
        else begin
          Fmt.pf ppf "%a@.@." Gator.Analysis.pp_summary r;
          List.iter
            (fun (op : Gator.Graph.op) ->
              let views = Gator.Analysis.op_receiver_views r op in
              let results = Gator.Analysis.op_result_views r op in
              Fmt.pf ppf "%a@." Gator.Node.pp_op_site op.site;
              if views <> [] then
                Fmt.pf ppf "  receivers: %a@." (Fmt.list ~sep:Fmt.comma Gator.Node.pp_view) views;
              if results <> [] then
                Fmt.pf ppf "  results:   %a@." (Fmt.list ~sep:Fmt.comma Gator.Node.pp_view) results)
            (Gator.Analysis.ops r);
          if show_interactions then begin
            Fmt.pf ppf "@.Interactions (activity, view, event, handler):@.";
            List.iter
              (fun ix -> Fmt.pf ppf "  %a@." Gator.Analysis.pp_interaction ix)
              (Gator.Analysis.interactions r);
            match Gator.Analysis.transitions r with
            | [] -> ()
            | transitions ->
                Fmt.pf ppf "@.Activity transitions:@.";
                List.iter (fun (a, b) -> Fmt.pf ppf "  %s -> %s@." a b) transitions
          end;
          if run_dynamic then begin
            let outcome = Dynamic.Interp.run app in
            let coverage = Dynamic.Oracle.check r outcome in
            Fmt.pf ppf "@.Dynamic run: %d observations; %a@."
              (List.length outcome.observations)
              Dynamic.Oracle.pp_coverage coverage
          end;
          if dump_dot then Fmt.pf ppf "@.%a@." Gator.Reader.pp_dot r.graph
        end;
        Format.pp_print_flush ppf ();
        Ok (Buffer.contents buf)
      end

let run code_paths layout_paths dump_dot show_interactions show_diagnostics run_dynamic
    json jobs =
  let analyze path =
    analyze_one ~dump_dot ~show_interactions ~show_diagnostics ~run_dynamic ~json path
      layout_paths
  in
  match code_paths with
  | [ single ] -> (
      (* single input: historical output shape, no pool *)
      match analyze single with
      | Ok out -> print_string out
      | Error e ->
          Fmt.epr "error: %s@." e;
          exit 1)
  | many ->
      let jobs = Option.value jobs ~default:(Pool.default_jobs ()) in
      let outcomes = Pool.map ~jobs analyze many in
      let failed = ref false in
      List.iter2
        (fun path (outcome : _ Pool.outcome) ->
          Printf.printf "== %s ==\n" path;
          match outcome.Pool.oc_result with
          | Ok (Ok out) ->
              print_string out;
              print_newline ()
          | Ok (Error e) ->
              failed := true;
              Printf.printf "FAILED: %s\n\n" e
          | Error pool_err ->
              failed := true;
              Printf.printf "FAILED: %s\n\n" pool_err.Pool.err_exn)
        many outcomes;
      if !failed then exit 1

(* Serving mode: a resident daemon keeping solved corpora hot, and a
   one-shot query client speaking its framed-JSON protocol. *)

let run_serve socket state_dir preload =
  let t = Server.Daemon.create ?state_dir ~socket () in
  Server.Daemon.run ~preload t

let run_query socket payload pretty =
  let request =
    match Util.Json.of_string payload with
    | Ok j -> j
    | Error e ->
        Fmt.epr "error: request is not JSON: %s@." e;
        exit 2
  in
  match Server.Client.request ~socket request with
  | Error e ->
      Fmt.epr "error: %s@." e;
      exit 1
  | Ok response ->
      print_endline (Util.Json.to_string ~pretty response);
      if Option.is_some (Util.Json.member "error" response) then exit 1

(* Streaming mode: generated apps flow through the bounded pipeline
   and each result leaves as one JSONL line the moment it completes. *)

let stream_apps apps seed jobs high low out_path fail_apps timings quiet =
  let oc, close =
    match out_path with
    | None -> (stdout, fun () -> flush stdout)
    | Some path ->
        let oc = open_out path in
        (oc, fun () -> close_out oc)
  in
  let emit line =
    output_string oc line;
    output_char oc '\n'
  in
  let start = Unix.gettimeofday () in
  let stats =
    Fun.protect ~finally:close (fun () ->
        Report.Experiments.run_stream ~jobs ?high ?low ~timings ~fail_apps ~seed ~apps
          ~emit ())
  in
  let seconds = Unix.gettimeofday () -. start in
  if not quiet then
    Fmt.epr "stream: %d apps in %.2fs (%.1f apps/s), %d failed, peak queue %d, %d steals@."
      stats.Pool.Stream.st_consumed seconds
      (float_of_int stats.Pool.Stream.st_consumed /. Float.max seconds 1e-9)
      stats.Pool.Stream.st_failed stats.Pool.Stream.st_max_queued stats.Pool.Stream.st_steals;
  if stats.Pool.Stream.st_failed > 0 then exit 1

(* Bad --high/--low values are usage errors (exit 124), caught before
   any domain is spawned; --jobs is checked as it is parsed. *)
let run_stream apps seed jobs high low out_path fail_apps timings quiet =
  let jobs = Option.value jobs ~default:(Pool.default_jobs ()) in
  match Pool.Stream.watermarks ~jobs ?high ?low () with
  | Error msg -> `Error (true, "--high/--low: " ^ msg)
  | Ok _ -> `Ok (stream_apps apps seed jobs high low out_path fail_apps timings quiet)

open Cmdliner

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket the daemon listens on.")

let serve_cmd =
  let state_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Persist accepted patch edits here; a restarted daemon replays them over the \
             regenerated app and re-solves, so its next patch is warm.")
  in
  let preload =
    Arg.(
      value & opt_all string []
      & info [ "preload" ] ~docv:"APP"
          ~doc:"Corpus app to load (and solve) before accepting requests. Repeatable.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident query daemon: solved apps stay hot in memory, point queries are \
          read from the solver's rows, and patch requests update the state \
          incrementally. Shut down with a $(b,shutdown) request.")
    Term.(const run_serve $ socket_arg $ state_dir $ preload)

let query_cmd =
  let payload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REQUEST"
          ~doc:
            "The request as JSON, e.g. '{\"method\":\"load\",\"app\":\"XBMC\"}' or \
             '{\"method\":\"points-to-of-node\",\"app\":\"XBMC\",\"node\":{\"var\":{\"cls\":\"Activity_0\",\"meth\":\"onCreate\",\"arity\":0,\"name\":\"root\"}}}'.")
  in
  let pretty = Arg.(value & flag & info [ "pretty" ] ~doc:"Indent the response JSON.") in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Send one framed request to a running daemon and print the response. Exits non-zero on \
          transport failure or an error envelope.")
    Term.(const run_query $ socket_arg $ payload $ pretty)

let stream_cmd =
  let apps =
    Arg.(
      value & opt int 1000
      & info [ "apps" ] ~docv:"N" ~doc:"Number of generated applications to stream.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Stream seed; app $(i,i) is a pure function of (seed, i).")
  in
  let jobs =
    Arg.(
      value
      & opt (some Jobs_arg.conv) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains, from 1 to 127. Defaults to the recommended domain count capped at \
             8; 1 forces the exact sequential loop.")
  in
  let high =
    Arg.(
      value
      & opt (some int) None
      & info [ "high" ] ~docv:"N"
          ~doc:
            "High watermark: production pauses once this many tasks are queued unstarted \
             (default: 2*jobs).")
  in
  let low =
    Arg.(
      value
      & opt (some int) None
      & info [ "low" ] ~docv:"N"
          ~doc:"Low watermark: production resumes when the backlog drains to this (default: high/2).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write JSONL rows here instead of stdout.")
  in
  let fail_apps =
    Arg.(
      value & opt_all string []
      & info [ "inject-failure" ] ~docv:"APP"
          ~doc:"Make the named generated app crash, to exercise fault isolation. Repeatable.")
  in
  let no_timings =
    Arg.(
      value & flag
      & info [ "no-timings" ]
          ~doc:"Omit per-app wall times, making rows deterministic for byte comparisons.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress the summary line on stderr.") in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Stream generated applications through the analysis pipeline: bounded backpressure \
          queue, work-stealing worker domains, one JSONL row per app in completion order, \
          failures isolated as ok:false rows. Exits non-zero if any app failed.")
    Term.(
      ret
        (const run_stream $ apps $ seed $ jobs $ high $ low $ out $ fail_apps
        $ Term.app (const not) no_timings $ quiet))

let () =
  let code =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"PROGRAM"
          ~doc:
            "ALite source file, or a project directory (src/*.alite + res/layout/*.xml). \
             Repeatable: several programs are analyzed as a batch with per-input fault \
             isolation.")
  in
  let layouts =
    Arg.(
      value & opt_all file []
      & info [ "l"; "layout" ] ~docv:"XML"
          ~doc:"Layout XML file; its basename (minus extension) is the layout name. Repeatable.")
  in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Dump the constraint graph in Graphviz form.") in
  let interactions =
    Arg.(value & flag & info [ "interactions" ] ~doc:"Print (activity, view, event, handler) tuples.")
  in
  let diagnostics =
    Arg.(value & flag & info [ "check" ] ~doc:"Run well-formedness diagnostics first.")
  in
  let dynamic =
    Arg.(
      value & flag
      & info [ "dynamic" ] ~doc:"Also execute the dynamic semantics and check soundness coverage.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the full solution as JSON and exit.")
  in
  let jobs =
    Arg.(
      value
      & opt (some Jobs_arg.conv) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for batch (multi-program) runs. Defaults to the recommended domain \
             count capped at 8; 1 forces the sequential path.")
  in
  let term =
    Term.(
      const run $ code $ layouts $ dot $ interactions $ diagnostics $ dynamic $ json
      $ jobs)
  in
  let analyze_cmd =
    Cmd.v (Cmd.info "analyze" ~doc:"Analyze ALite programs and print the computed GUI models.") term
  in
  let info =
    Cmd.info "gator" ~doc:"Static reference analysis for GUI objects (CGO'14) on ALite programs."
  in
  (* [gator PROGRAM...] still works: cmdliner's group rejects unknown
     first positionals instead of routing them to a default term, so
     only dispatch into the group when an explicit subcommand is
     named; everything else is the original analyze surface. *)
  let group = Cmd.group ~default:term info [ analyze_cmd; serve_cmd; query_cmd; stream_cmd ] in
  let explicit_subcommand =
    Array.length Sys.argv > 1 && List.mem Sys.argv.(1) [ "analyze"; "serve"; "query"; "stream" ]
  in
  if explicit_subcommand then exit (Cmd.eval group)
  else exit (Cmd.eval (Cmd.v info term))
