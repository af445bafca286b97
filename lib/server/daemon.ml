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

   Crash recovery: with a state directory configured, every solve is
   persisted through [Snapshot] and every accepted patch's edits are
   persisted verbatim; a restarted daemon replays the edits over the
   regenerated corpus app and serves the snapshot directly — answering
   queries without re-solving — as long as the rebuilt app's class
   fingerprint matches the captured one.  Any recovery failure
   (missing, corrupt or stale files) falls back to a fresh full solve;
   hostile state files are [Error]s, never crashes. *)

module J = Util.Json
module P = Protocol

let config = Gator.Config.default

type entry = {
  e_name : string;
  mutable e_app : Framework.App.t;  (** the app the solved state describes (base + patches) *)
  mutable e_solved : Gator.Solve.solved;
  mutable e_query : Gator.Query.t;
  mutable e_generation : int;  (** bumped by every applied patch *)
  mutable e_patches : J.t list;  (** accepted edit objects, oldest first *)
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

let snap_path dir name = Filename.concat dir (name ^ ".snap.json")

let patches_path dir name = Filename.concat dir (name ^ ".patches.json")

let persist t entry =
  Option.iter
    (fun dir ->
      Gator.Snapshot.save entry.e_solved (snap_path dir entry.e_name);
      let path = patches_path dir entry.e_name in
      if entry.e_patches = [] then begin if Sys.file_exists path then Sys.remove path end
      else begin
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (J.to_string (J.List entry.e_patches)))
      end)
    t.state_dir

(* Persisted patch edits, replayed over the regenerated base app so
   the registry's app matches the snapshotted solution's source.  Any
   defect (unreadable, unparsable, inapplicable) discards recovery of
   the patches AND the snapshot — the entry re-solves from base. *)
let recover_patches dir name base =
  let path = patches_path dir name in
  if not (Sys.file_exists path) then Some (base, [])
  else
    let read () =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match J.of_string (try read () with _ -> "\255") with
    | Error _ -> None
    | Ok (J.List edits as j) -> (
        match Corpus.Patch.of_json j with
        | Error _ -> None
        | Ok patch -> (
            match Corpus.Patch.apply base patch with
            | Ok app -> Some (app, edits)
            | Error _ -> None))
    | Ok _ -> None

let recover_snapshot dir name (app : Framework.App.t) =
  let path = snap_path dir name in
  if not (Sys.file_exists path) then None
  else
    match Gator.Snapshot.load path with
    | Error _ -> None
    | Ok solved ->
        (* serve the capture only when the rebuilt app's class
           surface matches it; otherwise re-solve *)
        if String.equal (Gator.Solve.solved_class_fp solved) (Gator.Solve.class_fp app) then
          Some solved
        else None

(* ------------------------------------------------------------------ *)
(* Registry *)

let corpus_app name =
  match Corpus.Apps.by_name name with
  | Some spec -> Some (Corpus.Gen.generate spec)
  | None -> None

(* Load an entry: recover app+patches+snapshot from the state
   directory when possible, full-solve otherwise, and persist the
   result either way.  Returns the entry and where its solution came
   from ("registry" | "snapshot" | "solved"). *)
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
                | Some recovered -> recovered
                | None -> (base, []))
          in
          let solved, source =
            match t.state_dir with
            | Some dir when patches != [] || Sys.file_exists (snap_path dir name) -> (
                match recover_snapshot dir name app with
                | Some solved -> (Some solved, "snapshot")
                | None -> (None, "solved"))
            | _ -> (None, "solved")
          in
          let solved =
            match solved with
            | Some solved -> solved
            | None ->
                let _, solved = Gator.Incremental.analyze_solved ~config app in
                solved
          in
          let entry =
            {
              e_name = name;
              e_app = app;
              e_solved = solved;
              e_query = Gator.Query.create ~hierarchy:app.Framework.App.hierarchy solved;
              e_generation = List.length patches;
              e_patches = patches;
            }
          in
          persist t entry;
          Hashtbl.replace t.registry name entry;
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
          let r, solved = Gator.Incremental.analyze_incremental ~config ~prev:entry.e_solved app in
          let retiring = Gator.Query.stats entry.e_query in
          entry.e_app <- app;
          entry.e_solved <- solved;
          entry.e_query <- Gator.Query.create ~hierarchy:app.Framework.App.hierarchy solved;
          carry_stats ~retiring ~fresh:(Gator.Query.stats entry.e_query);
          entry.e_generation <- entry.e_generation + 1;
          entry.e_patches <-
            entry.e_patches @ (match edits with J.List l -> l | e -> [ e ]);
          persist t entry;
          let s = r.Gator.Analysis.stats in
          logf t "patched %s -> generation %d (%s)" entry.e_name entry.e_generation
            (if s.Gator.Solve.warm_solve then "warm" else "full");
          Ok (entry, s))

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
          | Ok (entry, s) ->
              P.ok ~generation:entry.e_generation
                (J.Obj
                   [
                     ("app", J.String entry.e_name);
                     ("warm", J.Bool s.Gator.Solve.warm_solve);
                     ("dirty", J.Int s.Gator.Solve.dirty_comps);
                     ("reused", J.Int s.Gator.Solve.reused_comps);
                   ])))
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
