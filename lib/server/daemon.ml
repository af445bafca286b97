(* The resident query daemon (ROADMAP "analysis-as-a-service").

   A single-threaded accept/request loop over a Unix-domain socket:
   requests are handled serially, so an incremental patch is atomic
   with respect to queries by construction — a client observes either
   the pre-patch or the post-patch registry entry, never a torn one
   (each answer carries the entry's generation so clients can tell
   which).  Loaded apps live in an in-memory registry of
   [Solve.solved] states fronted by [Gator.Query] handles; a query is
   a lookup in the solver's rows and never mutates the solved state.
   A request's [budget] is validated but has no effect.

   Crash recovery: with a state directory configured, every accepted
   patch request's edits are persisted verbatim, one log entry per
   request, and nothing else; a restarted daemon regenerates the
   corpus app, replays the edits and re-solves, at the generation the
   entries count, so its first patch is as warm as a resident one.  A
   defective edit log is discarded with its reason logged and the base
   app is solved; hostile logs are [Error]s, never crashes. *)

module J = Util.Json
module P = Protocol

let config = Gator.Config.default

type entry = {
  e_name : string;
  mutable e_app : Framework.App.t;  (** the app the solved state describes (base + patches) *)
  mutable e_solved : Gator.Solve.solved;
  mutable e_query : Gator.Query.t;
  mutable e_generation : int;  (** bumped by every applied patch *)
  mutable e_patches : J.t list;
      (** the edit lists of accepted patch requests, newest first; only
          {!persist} reads them, so they are kept only with a state
          directory *)
}

type t = {
  socket_path : string;
  state_dir : string option;
  registry : (string, entry) Hashtbl.t;
  mutable running : bool;
  log : bool;
}

let create ?(log = true) ?state_dir ~socket () =
  Option.iter (fun dir -> if not (Sys.file_exists dir) then Unix.mkdir dir 0o755) state_dir;
  { socket_path = socket; state_dir; registry = Hashtbl.create 8; running = false; log }

let logf t fmt =
  if t.log then Printf.ksprintf (fun s -> Printf.eprintf "gator-serve: %s\n%!" s) fmt
  else Printf.ksprintf ignore fmt

(* ------------------------------------------------------------------ *)
(* Persistence *)

let patches_path dir name = Filename.concat dir (name ^ ".patches.json")

(* The log is written whole to a temporary file that is then renamed
   over it, so a write cut short leaves the previous log intact. *)
let persist t entry =
  Option.iter
    (fun dir ->
      let path = patches_path dir entry.e_name in
      let tmp = path ^ ".tmp" in
      Out_channel.with_open_bin tmp (fun oc ->
          output_string oc (J.to_string (J.List (List.rev entry.e_patches))));
      Sys.rename tmp path)
    t.state_dir

(* A log entry is one request's list of edits.  A log written before
   entries were grouped by request is a flat list of edit objects: each
   counts as a request of one edit. *)
let entry_edits = function J.List edits -> edits | edit -> [ edit ]

(* Persisted patch requests, replayed over the regenerated base app,
   or why they cannot be (unreadable, unparsable, a bad edit,
   inapplicable). *)
let recover_patches dir name base =
  let path = patches_path dir name in
  if not (Sys.file_exists path) then Ok (base, [])
  else
    let read () =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match read () with
    | exception ((Sys_error _ | End_of_file) as e) -> Error ("unreadable: " ^ Printexc.to_string e)
    | text -> (
        match J.of_string text with
        | Error e -> Error ("unparsable: " ^ e)
        | Ok (J.List entries) -> (
            let entries = List.map entry_edits entries in
            match Corpus.Patch.of_json (J.List (List.concat entries)) with
            | Error e -> Error ("bad edit: " ^ e)
            | Ok patch -> (
                match Corpus.Patch.apply base patch with
                | Ok app -> Ok (app, List.map (fun edits -> J.List edits) entries)
                | Error e -> Error ("inapplicable: " ^ e)))
        | Ok _ -> Error "not a list of patch requests")

(* ------------------------------------------------------------------ *)
(* Registry *)

let corpus_app name =
  match Corpus.Apps.by_name name with
  | Some spec -> Some (Corpus.Gen.generate spec)
  | None -> None

(* Load an entry: the base app plus any persisted edits, solved.
   Returns the entry and where its solution came from ("registry" |
   "replayed" | "solved"). *)
let load t name =
  match Hashtbl.find_opt t.registry name with
  | Some entry -> Ok (entry, "registry")
  | None -> (
      match corpus_app name with
      | None -> Error (P.E_unknown_app, Printf.sprintf "unknown app %S" name)
      | Some base ->
          let app, patches =
            match t.state_dir with
            | None -> (base, [])
            | Some dir -> (
                match recover_patches dir name base with
                | Ok recovered -> recovered
                | Error reason ->
                    logf t "%s: persisted edits discarded (%s); solving the base app" name reason;
                    (base, []))
          in
          let _, solved = Gator.Incremental.analyze_solved ~config app in
          let entry =
            {
              e_name = name;
              e_app = app;
              e_solved = solved;
              e_query = Gator.Query.create ~hierarchy:app.Framework.App.hierarchy solved;
              e_generation = List.length patches;
              e_patches = List.rev patches;
            }
          in
          Hashtbl.replace t.registry name entry;
          let source = if patches = [] then "solved" else "replayed" in
          logf t "loaded %s (%s, generation %d)" name source entry.e_generation;
          Ok (entry, source))

let find t name =
  match Hashtbl.find_opt t.registry name with
  | Some entry -> Ok entry
  | None -> Error (P.E_unknown_app, Printf.sprintf "app %S is not loaded" name)

(* A patch replaces the query handle wholesale (it fronts the new
   solved state), but the [stats] reply is cumulative per loaded app:
   carry the retiring handle's query count into the fresh one so a
   patch never silently zeroes the total a client is watching.
   [Query.stats] itself stays "since create" — the accumulation
   across generations is a daemon-level contract. *)
let carry_stats ~retiring ~fresh =
  fresh.Gator.Query.q_queries <- fresh.Gator.Query.q_queries + retiring.Gator.Query.q_queries

let apply_patch t entry edits =
  match Corpus.Patch.of_json edits with
  | Error e -> Error (P.E_bad_params, Printf.sprintf "bad patch: %s" e)
  | Ok patch -> (
      match Corpus.Patch.apply entry.e_app patch with
      | Error e -> Error (P.E_bad_params, Printf.sprintf "patch does not apply: %s" e)
      | Ok app ->
          let r, solved, route = Gator.Incremental.analyze_patch ~config ~prev:entry.e_solved app in
          let retiring = Gator.Query.stats entry.e_query in
          entry.e_app <- app;
          entry.e_solved <- solved;
          entry.e_query <- Gator.Query.create ~hierarchy:app.Framework.App.hierarchy solved;
          carry_stats ~retiring ~fresh:(Gator.Query.stats entry.e_query);
          entry.e_generation <- entry.e_generation + 1;
          if t.state_dir <> None then entry.e_patches <- edits :: entry.e_patches;
          persist t entry;
          let s = r.Gator.Analysis.stats in
          logf t "patched %s -> generation %d (%s)" entry.e_name entry.e_generation
            (if s.Gator.Solve.warm_solve then "warm" else "full");
          Ok (entry, s, route))

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let render pp v = Fmt.str "%a" pp v

let dispatch t request =
  match request with
  | P.R_ping -> P.ok (J.String "pong")
  | P.R_shutdown ->
      t.running <- false;
      P.ok (J.String "bye")
  | P.R_list ->
      let names = Hashtbl.fold (fun name _ acc -> name :: acc) t.registry [] in
      P.ok (J.List (List.map (fun n -> J.String n) (List.sort String.compare names)))
  | P.R_load name -> (
      match load t name with
      | Error (code, msg) -> P.error code msg
      | Ok (entry, source) ->
          P.ok ~generation:entry.e_generation
            (J.Obj [ ("app", J.String entry.e_name); ("source", J.String source) ]))
  | P.R_points_to { app; node; budget = _ } -> (
      match find t app with
      | Error (code, msg) -> P.error code msg
      | Ok entry -> (
          match Gator.Query.points_to entry.e_query node with
          | None ->
              P.error P.E_unknown_node
                (Printf.sprintf "node %s is unknown to %s" (render Gator.Node.pp node) app)
          | Some values ->
              P.ok ~generation:entry.e_generation
                (J.List (List.map (fun v -> J.String (render Gator.Node.pp_value v)) values))))
  | P.R_views_of_listener { app; listener } -> (
      match find t app with
      | Error (code, msg) -> P.error code msg
      | Ok entry ->
          let views = Gator.Query.views_of_listener entry.e_query listener in
          P.ok ~generation:entry.e_generation
            (J.List (List.map (fun v -> J.String (render Gator.Node.pp_view v)) views)))
  | P.R_activities_of_id { app; id } -> (
      match find t app with
      | Error (code, msg) -> P.error code msg
      | Ok entry ->
          let acts = Gator.Query.activities_of_id entry.e_query id in
          P.ok ~generation:entry.e_generation (J.List (List.map (fun a -> J.String a) acts)))
  | P.R_patch { app; edits } -> (
      match find t app with
      | Error (code, msg) -> P.error code msg
      | Ok entry -> (
          match apply_patch t entry edits with
          | Error (code, msg) -> P.error code msg
          | Ok (entry, s, route) ->
              (* how the warm start was built, and why any step fell
                 back: nothing else reports it *)
              P.ok ~generation:entry.e_generation
                (J.Obj
                   ([
                      ("app", J.String entry.e_name);
                      ("warm", J.Bool s.Gator.Solve.warm_solve);
                      ("dirty", J.Int s.Gator.Solve.dirty_comps);
                      ("reused", J.Int s.Gator.Solve.reused_comps);
                    ]
                   @ List.map (fun (k, v) -> (k, J.String v)) (Gator.Incremental.route_fields ?fallback:s.Gator.Solve.fallback route)
                   @
                   match s.Gator.Solve.fallback with
                   | Some reason -> [ ("fallback", J.String reason) ]
                   | None -> []))))
  | P.R_stats app -> (
      match find t app with
      | Error (code, msg) -> P.error code msg
      | Ok entry ->
          let s = Gator.Query.stats entry.e_query in
          P.ok ~generation:entry.e_generation
            (J.Obj
               [
                 ("app", J.String entry.e_name);
                 ("queries", J.Int s.Gator.Query.q_queries);
               ]))

(* One request payload -> one response payload.  Total: any hostile or
   unexpected condition renders as an error envelope; the daemon never
   dies inside a request. *)
let handle t payload =
  let response =
    match J.of_string payload with
    | Error e -> P.error P.E_parse e
    | Ok j -> (
        match P.request_of_json j with
        | Error (code, msg) -> P.error code msg
        | Ok request -> (
            try dispatch t request
            with exn -> P.error P.E_internal (Printexc.to_string exn)))
  in
  J.to_string response

(* ------------------------------------------------------------------ *)
(* Socket loop *)

(* Requests on one connection, serially, until close or shutdown.  A
   broken frame gets a best-effort error envelope and drops the
   connection (framing can't be resynced); a silent peer trips the
   receive timeout and is dropped the same way. *)
let serve_connection t fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let safe_write payload = try P.write_frame oc payload with _ -> () in
  let rec loop () =
    match (try P.read_frame ic with exn -> Error (P.Bad_frame (Printexc.to_string exn))) with
    | Ok payload ->
        safe_write (handle t payload);
        if t.running then loop ()
    | Error P.Eof -> ()
    | Error (P.Oversized n) ->
        safe_write (J.to_string (P.error P.E_oversized (Printf.sprintf "%d bytes" n)))
    | Error (P.Bad_frame reason) -> safe_write (J.to_string (P.error P.E_bad_frame reason))
  in
  loop ();
  (* [close_out_noerr] closes the underlying fd (even when the final
     flush fails); do NOT also [Unix.close fd] — by then the number
     may already name another thread's fresh socket, and the stray
     close cross-wires connections (fd-reuse race, found by the fuzz
     battery). *)
  close_out_noerr oc

let run ?(preload = []) t =
  (* a peer that vanishes mid-response must not kill the daemon: turn
     SIGPIPE into the EPIPE that [safe_write] already swallows *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if Sys.file_exists t.socket_path then Sys.remove t.socket_path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with _ -> ());
      if Sys.file_exists t.socket_path then try Sys.remove t.socket_path with _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX t.socket_path);
      Unix.listen sock 16;
      t.running <- true;
      List.iter
        (fun name ->
          match load t name with
          | Ok _ -> ()
          | Error (_, msg) -> logf t "preload failed: %s" msg)
        preload;
      logf t "listening on %s" t.socket_path;
      while t.running do
        match Unix.accept sock with
        | fd, _ -> ( try serve_connection t fd with _ -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done)
