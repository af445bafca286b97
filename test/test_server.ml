(* The query daemon: protocol robustness (hostile frames and payloads
   must produce structured error envelopes and leave the daemon
   serving), a qcheck byte-mutation fuzzer over valid request frames,
   concurrency/consistency (queries racing an incremental patch see
   exactly the pre- or post-patch answer, identified by generation),
   and crash recovery (a restarted daemon replays its edit log,
   answers identically and patches warm, at the generation it had
   reached; a byte-mutated log still loads). *)

module J = Util.Json
module P = Server.Protocol

let to_s = J.to_string

let no_log = false

(* Dispatch-level harness: the daemon's full request handling without
   a socket. *)
let mk_server ?state_dir () =
  Server.Daemon.create ~log:no_log ?state_dir ~socket:"/nonexistent/unused.sock" ()

let handle t req = Server.Daemon.handle t (to_s req)

let handle_json t req =
  match J.of_string (handle t req) with
  | Ok j -> j
  | Error e -> Alcotest.failf "daemon produced unparsable response: %s" e

let error_code response =
  match J.member "error" response with
  | Some e -> ( match J.member "code" e with Some (J.String c) -> Some c | _ -> None)
  | None -> None

let ok_payload response = J.member "ok" response

let generation response =
  match J.member "generation" response with Some (J.Int g) -> Some g | _ -> None

(* The patch reply's route fields, and its fallback, if any. *)
let route_of reply =
  match ok_payload reply with
  | Some ok ->
      List.map
        (fun k -> (k, match J.member k ok with Some (J.String v) -> v | _ -> "<missing>"))
        [ "assembly"; "freeze"; "edit_script" ]
      @ (match J.member "fallback" ok with Some (J.String r) -> [ ("fallback", r) ] | _ -> [])
  | None -> Alcotest.failf "patch failed: %s" (to_s reply)

let req_load app = J.Obj [ ("method", J.String "load"); ("app", J.String app) ]

let req_points_to ?budget app node =
  P.request_to_json (P.R_points_to { app; node; budget })

let req_ping = J.Obj [ ("method", J.String "ping") ]

(* ------------------------------------------------------------------ *)
(* Dispatch: happy path and error envelopes *)

let test_dispatch () =
  let t = mk_server () in
  (* ping before anything is loaded *)
  Alcotest.(check (option string)) "ping" None (error_code (handle_json t req_ping));
  (* queries against unloaded apps are structured errors *)
  Alcotest.(check (option string))
    "unknown app" (Some "unknown-app")
    (error_code (handle_json t (req_points_to "ConnectBot" (Gator.Node.N_field "f"))));
  Alcotest.(check (option string))
    "unknown corpus app on load" (Some "unknown-app")
    (error_code (handle_json t (req_load "NoSuchApp")));
  (* load, then answers must match a local Query over the same app *)
  let load1 = handle_json t (req_load "ConnectBot") in
  Alcotest.(check (option string)) "load ok" None (error_code load1);
  Alcotest.(check (option int)) "fresh load is generation 0" (Some 0) (generation load1);
  let app = Corpus.Gen.generate (Option.get (Corpus.Apps.by_name "ConnectBot")) in
  let r, solved = Gator.Incremental.analyze_solved app in
  let q = Gator.Query.create ~hierarchy:app.Framework.App.hierarchy solved in
  List.iter
    (fun node ->
      let expected =
        J.List
          (List.map
             (fun v -> J.String (Fmt.str "%a" Gator.Node.pp_value v))
             (Option.get (Gator.Query.points_to q node)))
      in
      let response = handle_json t (req_points_to "ConnectBot" node) in
      match ok_payload response with
      | Some got ->
          if not (J.equal expected got) then
            Alcotest.failf "daemon answer differs at %a:@.  local  %s@.  daemon %s" Gator.Node.pp
              node (to_s expected) (to_s got)
      | None -> Alcotest.failf "daemon errored at %a: %s" Gator.Node.pp node (to_s response))
    (Gator.Graph.locations r.Gator.Analysis.graph);
  (* unknown node: error envelope, daemon keeps serving *)
  Alcotest.(check (option string))
    "unknown node" (Some "unknown-node")
    (error_code (handle_json t (req_points_to "ConnectBot" (Gator.Node.N_field "zzz_no"))));
  (* malformed payloads *)
  let bad payload =
    match J.of_string (Server.Daemon.handle t payload) with
    | Ok j -> error_code j
    | Error e -> Alcotest.failf "unparsable response to %S: %s" payload e
  in
  Alcotest.(check (option string)) "not json" (Some "parse") (bad "{nope");
  Alcotest.(check (option string)) "no method" (Some "bad-params") (bad "{}");
  Alcotest.(check (option string)) "non-object" (Some "bad-params") (bad "42");
  Alcotest.(check (option string))
    "unknown method" (Some "unknown-method")
    (bad (to_s (J.Obj [ ("method", J.String "frobnicate") ])));
  Alcotest.(check (option string))
    "bad node params" (Some "bad-params")
    (bad
       (to_s
          (J.Obj
             [
               ("method", J.String "points-to-of-node");
               ("app", J.String "ConnectBot");
               ("node", J.Obj [ ("var", J.Obj [ ("cls", J.Int 3) ]) ]);
             ])));
  Alcotest.(check (option string))
    "bad patch" (Some "bad-params")
    (bad
       (to_s
          (J.Obj
             [
               ("method", J.String "patch");
               ("app", J.String "ConnectBot");
               ("edits", J.List [ J.Obj [ ("edit", J.String "no-such-edit") ] ]);
             ])));
  (* ...and the daemon still serves after every one of them *)
  Alcotest.(check (option string)) "still serving" None (error_code (handle_json t req_ping))

(* Operand codecs round-trip through JSON. *)
let test_codecs () =
  let mid = { Gator.Node.mid_cls = "C"; mid_name = "m"; mid_arity = 2 } in
  let nodes =
    [
      Gator.Node.N_var (mid, "x");
      Gator.Node.N_field "listeners";
      Gator.Node.N_ret { mid with Gator.Node.mid_arity = 0 };
    ]
  in
  List.iter
    (fun n ->
      match P.node_of_json (P.node_to_json n) with
      | Ok n' -> Alcotest.(check bool) "node round-trips" true (Gator.Node.equal n n')
      | Error (_, e) -> Alcotest.failf "node codec: %s" e)
    nodes;
  let listeners =
    [
      Gator.Node.L_act "MainActivity";
      Gator.Node.L_alloc
        { Gator.Node.a_cls = "L"; a_site = { Gator.Node.s_in = mid; s_stmt = 7 } };
    ]
  in
  List.iter
    (fun l ->
      match P.listener_of_json (P.listener_to_json l) with
      | Ok l' -> Alcotest.(check bool) "listener round-trips" true (Gator.Node.equal_listener l l')
      | Error (_, e) -> Alcotest.failf "listener codec: %s" e)
    listeners

(* ------------------------------------------------------------------ *)
(* Socket-level robustness: hostile frames against a live daemon *)

let temp_socket () =
  let path = Filename.temp_file "gator_test" ".sock" in
  Sys.remove path;
  path

let with_daemon ?state_dir f =
  let socket = temp_socket () in
  let t = Server.Daemon.create ~log:no_log ?state_dir ~socket () in
  let thread = Thread.create (fun () -> Server.Daemon.run t) () in
  (* wait out the bind: raw-byte tests connect without retrying *)
  (match Server.Client.connect_retry socket with
  | Ok c -> Server.Client.close c
  | Error e -> Alcotest.failf "daemon never bound %s: %s" socket e);
  Fun.protect
    ~finally:(fun () ->
      (* best-effort shutdown in case the test failed before its own *)
      ignore (Server.Client.request ~socket (P.request_to_json P.R_shutdown));
      Thread.join thread;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () -> f socket)

let expect_ok socket req =
  match Server.Client.request ~socket req with
  | Ok response ->
      (match J.member "error" response with
      | Some _ -> Alcotest.failf "unexpected error: %s" (to_s response)
      | None -> ());
      response
  | Error e -> Alcotest.failf "transport failure: %s" e

(* Write raw bytes as a client, half-close, and drain whatever the
   daemon answers (possibly nothing).  Must never hang: the daemon
   responds or closes. *)
let raw_exchange socket bytes =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      ignore (Unix.write fd (Bytes.of_string bytes) 0 (String.length bytes));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let buf = Bytes.create 4096 in
      let out = Buffer.create 256 in
      let rec drain () =
        match Unix.read fd buf 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes out buf 0 n;
            drain ()
        | exception _ -> ()
      in
      drain ();
      Buffer.contents out)

(* The error envelope inside a framed response, if one came back. *)
let envelope_code raw =
  match String.index_opt raw '\n' with
  | None -> None
  | Some i -> (
      match J.of_string (String.sub raw (i + 1) (String.length raw - i - 1)) with
      | Ok j -> error_code j
      | Error _ -> None)

let test_hostile_frames () =
  with_daemon (fun socket ->
      let ping () =
        Alcotest.(check (option string)) "daemon still serves" None
          (error_code (expect_ok socket req_ping))
      in
      (* well-formed frame, hostile payloads -> error envelopes *)
      let framed payload = Printf.sprintf "%d\n%s" (String.length payload) payload in
      Alcotest.(check (option string))
        "malformed json" (Some "parse")
        (envelope_code (raw_exchange socket (framed "{broken")));
      ping ();
      Alcotest.(check (option string))
        "binary garbage payload" (Some "parse")
        (envelope_code (raw_exchange socket (framed "\x00\xff\x01\xfe")));
      ping ();
      (* broken framing *)
      Alcotest.(check (option string))
        "non-numeric length line" (Some "bad-frame")
        (envelope_code (raw_exchange socket "banana\n{}"));
      ping ();
      Alcotest.(check (option string))
        "truncated payload" (Some "bad-frame")
        (envelope_code (raw_exchange socket "1000\n{\"method\":\"ping\"}"));
      ping ();
      Alcotest.(check (option string))
        "oversized declaration" (Some "oversized")
        (envelope_code (raw_exchange socket (Printf.sprintf "%d\n" (P.max_frame + 1))));
      ping ();
      Alcotest.(check (option string))
        "length line overflow" (Some "bad-frame")
        (envelope_code (raw_exchange socket "99999999999999999999\n"));
      ping ();
      (* empty write, immediate close *)
      ignore (raw_exchange socket "");
      ping ();
      (* several requests on one connection keep working *)
      (match Server.Client.connect socket with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Server.Client.close c)
            (fun () ->
              List.iter
                (fun _ ->
                  match Server.Client.rpc c req_ping with
                  | Ok j -> Alcotest.(check (option string)) "pipelined ping" None (error_code j)
                  | Error e -> Alcotest.failf "pipelined rpc: %s" e)
                [ 1; 2; 3 ]));
      ping ())

(* qcheck fuzzer: byte mutations of valid request frames.  Whatever
   the bytes decode to, the daemon must answer every mutation with
   SOME response (or drop the connection) and still serve a ping. *)
let test_fuzz =
  QCheck.Test.make ~count:60 ~name:"byte-mutation fuzz over valid frames"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      with_daemon (fun socket ->
          let rng = Util.Prng.create seed in
          let valid =
            [
              to_s req_ping;
              to_s (req_load "ConnectBot");
              to_s (req_points_to "ConnectBot" (Gator.Node.N_field "f"));
              to_s
                (P.request_to_json
                   (P.R_patch
                      {
                        app = "ConnectBot";
                        edits =
                          J.List
                            [
                              J.Obj
                                [
                                  ("edit", J.String "rename_view_id");
                                  ("from", J.String "a");
                                  ("to", J.String "b");
                                ];
                            ];
                      }));
            ]
          in
          for _ = 1 to 5 do
            let payload = Bytes.of_string (List.nth valid (Util.Prng.int rng (List.length valid))) in
            let mutations = 1 + Util.Prng.int rng 4 in
            for _ = 1 to mutations do
              Bytes.set payload
                (Util.Prng.int rng (Bytes.length payload))
                (Char.chr (Util.Prng.int rng 256))
            done;
            let payload = Bytes.to_string payload in
            (* sometimes corrupt the framing too *)
            let frame =
              if Util.Prng.chance rng 0.3 then
                String.init (1 + Util.Prng.int rng 40) (fun _ -> Char.chr (Util.Prng.int rng 256))
              else Printf.sprintf "%d\n%s" (String.length payload) payload
            in
            ignore (raw_exchange socket frame);
            match Server.Client.request ~socket req_ping with
            | Ok j ->
                if error_code j <> None then
                  Alcotest.failf "daemon degraded after fuzz frame %S" frame
            | Error e -> Alcotest.failf "daemon unreachable after fuzz frame %S: %s" frame e
          done;
          true))

(* ------------------------------------------------------------------ *)
(* Concurrency: queries racing a patch observe pre- OR post-patch
   state, never a torn mix, and the generation tells which. *)

let xbmc () = Corpus.Gen.generate (Option.get (Corpus.Apps.by_name "XBMC"))

(* An [add_stmt] of [x = new Button] at the end of
   [Activity_0.onCreate]. *)
let add_button x =
  J.Obj
    [
      ("edit", J.String "add_stmt");
      ("cls", J.String "Activity_0");
      ("meth", J.String "onCreate");
      ("arity", J.Int 0);
      ("stmt", J.Obj [ ("new", J.List [ J.String x; J.String "android.widget.Button" ]) ]);
    ]

let patch_edits = J.List [ add_button "srv_tmp" ]

let patch_of_edits edits =
  match Corpus.Patch.of_json edits with
  | Ok p -> p
  | Error e -> Alcotest.failf "test patch does not parse: %s" e

(* Rendered answers a protocol client would see, computed locally. *)
let local_answers app nodes =
  let _, solved = Gator.Incremental.analyze_solved app in
  let q = Gator.Query.create ~hierarchy:app.Framework.App.hierarchy solved in
  List.map
    (fun node ->
      match Gator.Query.points_to q node with
      | Some values ->
          Ok (J.List (List.map (fun v -> J.String (Fmt.str "%a" Gator.Node.pp_value v)) values))
      | None -> Error "unknown-node")
    nodes

let test_concurrent_patch () =
  with_daemon (fun socket ->
      ignore (expect_ok socket (req_load "XBMC"));
      let base = xbmc () in
      let patched =
        match Corpus.Patch.apply base (patch_of_edits patch_edits) with
        | Ok app -> app
        | Error e -> Alcotest.failf "patch: %s" e
      in
      (* probe nodes: existing locations plus the patch-minted one *)
      let fresh =
        Gator.Node.N_var
          ({ Gator.Node.mid_cls = "Activity_0"; mid_name = "onCreate"; mid_arity = 0 }, "srv_tmp")
      in
      let r = Gator.Analysis.analyze base in
      let existing =
        match Gator.Graph.locations r.Gator.Analysis.graph with
        | a :: b :: c :: _ -> [ a; b; c ]
        | l -> l
      in
      let nodes = fresh :: existing in
      let pre = local_answers base nodes and post = local_answers patched nodes in
      let failures = Queue.create () in
      let mutex = Mutex.create () in
      let fail fmt =
        Printf.ksprintf
          (fun s ->
            Mutex.lock mutex;
            Queue.add s failures;
            Mutex.unlock mutex)
          fmt
      in
      let client_loop tid =
        match Server.Client.connect_retry socket with
        | Error e -> fail "client %d: %s" tid e
        | Ok c ->
            Fun.protect
              ~finally:(fun () -> Server.Client.close c)
              (fun () ->
                for round = 1 to 30 do
                  List.iteri
                    (fun i node ->
                      match Server.Client.rpc c (req_points_to "XBMC" node) with
                      | Error e -> fail "client %d: rpc: %s" tid e
                      | Ok response -> (
                          let expected =
                            match generation response with
                            | Some 0 -> Some (List.nth pre i)
                            | Some 1 -> Some (List.nth post i)
                            | Some g ->
                                fail "client %d: impossible generation %d" tid g;
                                None
                            | None ->
                                (* error envelopes carry no generation:
                                   only unknown-node on the fresh,
                                   pre-patch node is legitimate *)
                                Some (Error "unknown-node")
                          in
                          match expected with
                          | None -> ()
                          | Some (Ok payload) -> (
                              match ok_payload response with
                              | Some got when J.equal got payload -> ()
                              | _ ->
                                  fail "client %d round %d: torn answer for node %d: %s" tid round
                                    i (to_s response))
                          | Some (Error code) ->
                              if error_code response <> Some code then
                                fail "client %d round %d: expected %s error, got %s" tid round code
                                  (to_s response)))
                    nodes
                done)
      in
      let clients = List.init 4 (fun tid -> Thread.create client_loop tid) in
      (* fire the patch while the clients hammer the daemon *)
      Thread.yield ();
      let patch_response =
        expect_ok socket (P.request_to_json (P.R_patch { app = "XBMC"; edits = patch_edits }))
      in
      Alcotest.(check (option int)) "patch bumps generation" (Some 1) (generation patch_response);
      List.iter Thread.join clients;
      if not (Queue.is_empty failures) then Alcotest.failf "%s" (Queue.peek failures);
      (* after the dust settles every answer is post-patch *)
      List.iteri
        (fun i node ->
          let response = expect_ok socket (req_points_to "XBMC" node) in
          Alcotest.(check (option int)) "settled generation" (Some 1) (generation response);
          match (List.nth post i, ok_payload response) with
          | Ok payload, Some got ->
              Alcotest.(check bool) "settled answer" true (J.equal payload got)
          | Error _, _ -> Alcotest.failf "post-patch reference missing for node %d" i
          | Ok _, None -> Alcotest.failf "settled query errored: %s" (to_s response))
        nodes)

(* ------------------------------------------------------------------ *)
(* Crash recovery: a fresh daemon over the same state directory replays
   the persisted edits, answers as a cold analysis of base plus edits,
   and patches warm at once. *)

(* [f state_dir] over a fresh state directory, removed afterwards. *)
let with_state_dir f =
  let state_dir = Filename.temp_file "gator_state" "" in
  Sys.remove state_dir;
  let cleanup () =
    if Sys.file_exists state_dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat state_dir f)) (Sys.readdir state_dir);
      Unix.rmdir state_dir
    end
  in
  Fun.protect ~finally:cleanup (fun () -> f state_dir)

let test_crash_recovery () =
  with_state_dir (fun state_dir ->
      let nodes =
        [
          Gator.Node.N_var
            ( { Gator.Node.mid_cls = "Activity_0"; mid_name = "onCreate"; mid_arity = 0 },
              "srv_tmp" );
          Gator.Node.N_field "f";
        ]
      in
      let patch t = handle_json t (P.request_to_json (P.R_patch { app = "XBMC"; edits = patch_edits })) in
      let load t =
        let reply = handle_json t (req_load "XBMC") in
        match ok_payload reply with
        | Some ok -> (J.member "source" ok, generation reply)
        | None -> Alcotest.failf "load failed: %s" (to_s reply)
      in
      (* each answer as a payload, or the error code a client sees *)
      let answers t =
        List.map
          (fun n ->
            let reply = handle_json t (req_points_to "XBMC" n) in
            match (ok_payload reply, error_code reply) with
            | Some ok, _ -> Ok ok
            | None, code -> Error (Option.value code ~default:"<none>"))
          nodes
      in
      let check_answers what expected got =
        Alcotest.(check bool) what true (List.equal (Result.equal ~ok:J.equal ~error:String.equal) expected got)
      in
      let t1 = mk_server ~state_dir () in
      Alcotest.(check bool) "fresh load" true (load t1 = (Some (J.String "solved"), Some 0));
      Alcotest.(check (option string)) "patch" None (error_code (patch t1));
      let before = answers t1 in
      check_answers "answers equal a cold analysis of base plus edits"
        (local_answers (Result.get_ok (Corpus.Patch.apply (xbmc ()) (patch_of_edits patch_edits))) nodes)
        before;
      Alcotest.(check (list string)) "the state directory holds only the edit log" [ "XBMC.patches.json" ]
        (Array.to_list (Sys.readdir state_dir));
      (* a snapshot left by an older build is neither read nor deleted *)
      let snap = Filename.concat state_dir "XBMC.snap.json" in
      Out_channel.with_open_bin snap (fun oc -> output_string oc "{\"corrupt\": true");
      (* "crash": drop the daemon on the floor, start a new one cold *)
      let t2 = mk_server ~state_dir () in
      Alcotest.(check bool) "replayed at generation 1" true (load t2 = (Some (J.String "replayed"), Some 1));
      check_answers "answers identical after restart" before (answers t2);
      let reply = patch t2 in
      Alcotest.(check bool) "first patch after the restart is warm" true
        (Option.bind (ok_payload reply) (J.member "warm") = Some (J.Bool true));
      Alcotest.(check (list (pair string string)))
        "first patch after the restart takes the fragment route"
        [
          ("assembly", "1 of 3012 methods re-extracted");
          ("freeze", "delta freeze, partition kept");
          ("edit_script", "freeze delta");
        ]
        (route_of reply);
      Alcotest.(check string) "old snapshot untouched" "{\"corrupt\": true"
        (In_channel.with_open_bin snap In_channel.input_all);
      (* a corrupt edit log is discarded: the base app, at generation 0 *)
      Out_channel.with_open_bin (Filename.concat state_dir "XBMC.patches.json") (fun oc ->
          output_string oc "[{\"edit\": ");
      let t3 = mk_server ~state_dir () in
      Alcotest.(check bool) "corrupt edit log: solved at generation 0" true
        (load t3 = (Some (J.String "solved"), Some 0));
      check_answers "corrupt edit log: the base app's answers" (local_answers (xbmc ()) nodes) (answers t3))

(* The edit log holds one entry per accepted patch request, so a
   restart answers at the generation the daemon had reached, however
   many edits each request carried; it is replaced whole through a
   temporary file, whose leftover from a crashed write [load] ignores;
   and a log in the older flat form (one edit object per entry) still
   replays, at a generation per edit. *)
let test_edit_log_generations () =
  with_state_dir (fun state_dir ->
      let log = Filename.concat state_dir "XBMC.patches.json" in
      let load t =
        let reply = handle_json t (req_load "XBMC") in
        (Option.bind (ok_payload reply) (J.member "source"), generation reply)
      in
      let only_the_log () =
        Alcotest.(check (list string)) "the state directory holds only the edit log" [ "XBMC.patches.json" ]
          (Array.to_list (Sys.readdir state_dir))
      in
      let t1 = mk_server ~state_dir () in
      Alcotest.(check bool) "fresh load" true (load t1 = (Some (J.String "solved"), Some 0));
      let two_edits = J.List [ add_button "log_a"; add_button "log_b" ] in
      let reply = handle_json t1 (P.request_to_json (P.R_patch { app = "XBMC"; edits = two_edits })) in
      Alcotest.(check (option int)) "a two-edit patch is one generation" (Some 1) (generation reply);
      only_the_log ();
      Out_channel.with_open_bin (log ^ ".tmp") (fun oc -> output_string oc "[[{\"edit\": ");
      let t2 = mk_server ~state_dir () in
      Alcotest.(check bool) "replayed at generation 1 past a leftover temporary file" true
        (load t2 = (Some (J.String "replayed"), Some 1));
      let reply = handle_json t2 (P.request_to_json (P.R_patch { app = "XBMC"; edits = patch_edits })) in
      Alcotest.(check (option int)) "the next patch" (Some 2) (generation reply);
      only_the_log ();
      Alcotest.(check bool) "replayed at generation 2" true
        (load (mk_server ~state_dir ()) = (Some (J.String "replayed"), Some 2));
      Out_channel.with_open_bin log (fun oc ->
          output_string oc (J.to_string (J.List [ add_button "log_a"; add_button "log_b"; add_button "log_c" ])));
      Alcotest.(check bool) "a flat log replays, a generation per edit" true
        (load (mk_server ~state_dir ()) = (Some (J.String "replayed"), Some 3)))

(* Hostile edit logs: whatever bytes the log holds, [load] answers
   [ok], from the replayed log or the base app, raises nothing and
   returns in bounded time. *)
let log_entry = J.List [ add_button "log_a" ]

let log_fragments =
  [| "["; "]"; "{"; "}"; ","; ":"; "\""; "null"; "0"; "7"; "-1"; "1e999"; "99999999999999999999"; "[]";
     "\"edit\""; "\"add_stmt\""; "\"remove_stmt\""; "\"add_method\""; "\"rename_view_id\""; "\"index\"";
     "\"onCreate\""; "\"Activity_1\""; "," ^ J.to_string log_entry |]

let valid_log =
  J.to_string
    (J.List
       [
         log_entry;
         J.List
           [
             add_button "log_b";
             J.Obj
               [
                 ("edit", J.String "remove_stmt");
                 ("cls", J.String "Activity_0");
                 ("meth", J.String "onCreate");
                 ("arity", J.Int 0);
                 ("index", J.Int 0);
               ];
           ];
       ])

let test_fuzz_edit_log =
  QCheck.Test.make ~count:20 ~name:"byte-mutation fuzz over the edit log"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      with_state_dir (fun state_dir ->
          let rng = Util.Prng.create seed in
          let text = ref valid_log in
          for _ = 1 to 1 + Util.Prng.int rng 4 do
            text := Byte_mutation.mutate ~fragments:log_fragments rng !text
          done;
          let t = mk_server ~state_dir () in
          Out_channel.with_open_bin (Filename.concat state_dir "XBMC.patches.json") (fun oc ->
              output_string oc !text);
          let t0 = Unix.gettimeofday () in
          let reply =
            match Server.Daemon.handle t (to_s (req_load "XBMC")) with
            | reply -> reply
            | exception e -> QCheck.Test.fail_reportf "load raised %s on %S" (Printexc.to_string e) !text
          in
          let dt = Unix.gettimeofday () -. t0 in
          if dt > 10.0 then QCheck.Test.fail_reportf "load took %.1fs on %S" dt !text;
          match Result.map ok_payload (J.of_string reply) with
          | Ok (Some ok)
            when List.mem (J.member "source" ok) [ Some (J.String "replayed"); Some (J.String "solved") ] ->
              true
          | _ -> QCheck.Test.fail_reportf "load answered %s on %S" reply !text))

(* The stats reply is cumulative per loaded app: a patch replaces the
   query handle (it fronts the new solved state) but must NOT zero the
   count a client is watching — the daemon carries the retiring
   handle's total into the fresh one. *)
let test_stats_survive_patch () =
  let t = mk_server () in
  Alcotest.(check (option string)) "load ok" None (error_code (handle_json t (req_load "XBMC")));
  let r, _ = Gator.Incremental.analyze_solved (xbmc ()) in
  let probes =
    match Gator.Graph.locations r.Gator.Analysis.graph with
    | a :: b :: c :: _ -> [ a; b; c ]
    | l -> l
  in
  List.iter (fun node -> ignore (handle_json t (req_points_to "XBMC" node))) probes;
  let stat_field name =
    match ok_payload (handle_json t (P.request_to_json (P.R_stats "XBMC"))) with
    | Some (J.Obj fields) -> (
        match List.assoc_opt name fields with
        | Some (J.Int v) -> v
        | _ -> Alcotest.failf "stats reply lacks %S" name)
    | _ -> Alcotest.fail "stats reply not an object"
  in
  Alcotest.(check int) "queries before the patch" (List.length probes) (stat_field "queries");
  let patched =
    handle_json t (P.request_to_json (P.R_patch { app = "XBMC"; edits = patch_edits }))
  in
  Alcotest.(check (option int)) "patch bumps generation" (Some 1) (generation patched);
  Alcotest.(check int) "queries survive the patch" (List.length probes) (stat_field "queries");
  List.iter (fun node -> ignore (handle_json t (req_points_to "XBMC" node))) probes;
  Alcotest.(check int) "and keep accumulating" (2 * List.length probes) (stat_field "queries")

let on_create () =
  Option.get
    (Jir.Ast.find_meth
       (Option.get (Jir.Ast.find_class (xbmc ()).program "Activity_0"))
       { Jir.Ast.mk_name = "onCreate"; mk_arity = 0 })

(* A patch reply says how the warm start was built, every fallback
   with its reason: a resident solve assembles from fragments and
   takes its edit script from the freeze delta; a reverted patch too. *)
let test_patch_route () =
  let t = mk_server () in
  Alcotest.(check (option string)) "load ok" None (error_code (handle_json t (req_load "XBMC")));
  let fields = Alcotest.(list (pair string string)) in
  let patch edits = handle_json t (P.request_to_json (P.R_patch { app = "XBMC"; edits })) in
  Alcotest.check fields "fragment route"
    [
      ("assembly", "1 of 3012 methods re-extracted");
      ("freeze", "delta freeze, partition kept");
      ("edit_script", "freeze delta");
    ]
    (route_of (patch patch_edits));
  (* the added statement landed at the end of the body *)
  let index = List.length (on_create ()).m_body in
  let revert =
    J.List
      [
        J.Obj
          [
            ("edit", J.String "remove_stmt");
            ("cls", J.String "Activity_0");
            ("meth", J.String "onCreate");
            ("arity", J.Int 0);
            ("index", J.Int index);
          ];
      ]
  in
  let reply = patch revert in
  Alcotest.(check (option int)) "reverted at generation 2" (Some 2) (generation reply);
  Alcotest.check fields "revert route"
    [
      ("assembly", "1 of 3012 methods re-extracted");
      ("freeze", "delta freeze, partition kept");
      ("edit_script", "freeze delta");
    ]
    (route_of reply)

(* A [remove_stmt] outside the method's body is an error reply, and
   the app stays at its generation. *)
let test_patch_out_of_range () =
  let t = mk_server () in
  Alcotest.(check (option string)) "load ok" None (error_code (handle_json t (req_load "XBMC")));
  let remove index =
    J.List
      [
        J.Obj
          [
            ("edit", J.String "remove_stmt");
            ("cls", J.String "Activity_0");
            ("meth", J.String "onCreate");
            ("arity", J.Int 0);
            ("index", J.Int index);
          ];
      ]
  in
  let patch edits = handle_json t (P.request_to_json (P.R_patch { app = "XBMC"; edits })) in
  let body = List.length (on_create ()).m_body in
  List.iter
    (fun index ->
      Alcotest.(check (option string))
        (Printf.sprintf "index %d refused" index)
        (Some "bad-params")
        (error_code (patch (remove index)));
      Alcotest.(check (option int)) "generation unchanged" (Some 0) (generation (handle_json t (req_load "XBMC"))))
    [ body; body + 5; -1 ];
  Alcotest.(check (option int)) "the last statement goes" (Some 1) (generation (patch (remove (body - 1))))

(* A frame-cap-sized payload that is nothing but nested arrays: the
   JSON depth bound turns it into a [parse] error envelope quickly,
   and the daemon keeps serving. *)
let test_deep_nesting_frame () =
  let t = mk_server () in
  let half = P.max_frame / 2 in
  let payload = String.make half '[' ^ String.make half ']' in
  let t0 = Unix.gettimeofday () in
  let response = Server.Daemon.handle t payload in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match J.of_string response with
  | Ok j -> Alcotest.(check (option string)) "parse error" (Some "parse") (error_code j)
  | Error e -> Alcotest.failf "unparsable response: %s" e);
  if elapsed >= 1.0 then Alcotest.failf "nested frame held the daemon for %.2f s" elapsed;
  Alcotest.(check (option string)) "still serving" None (error_code (handle_json t req_ping))

let suite =
  [
    Alcotest.test_case "dispatch: answers, envelopes, survival" `Quick test_dispatch;
    Alcotest.test_case "stats survive a patch" `Quick test_stats_survive_patch;
    Alcotest.test_case "a patch reply names its route" `Quick test_patch_route;
    Alcotest.test_case "an out-of-range remove_stmt is an error" `Quick test_patch_out_of_range;
    Alcotest.test_case "operand codecs round-trip" `Quick test_codecs;
    Alcotest.test_case "hostile frames against a live daemon" `Quick test_hostile_frames;
    Alcotest.test_case "frame-sized nesting is refused fast" `Quick test_deep_nesting_frame;
    Alcotest.test_case "crash recovery replays the edit log" `Quick test_crash_recovery;
    Alcotest.test_case "the edit log counts patch requests" `Quick test_edit_log_generations;
    QCheck_alcotest.to_alcotest test_fuzz_edit_log;
    Alcotest.test_case "concurrent queries during a patch" `Slow test_concurrent_patch;
    QCheck_alcotest.to_alcotest ~long:true test_fuzz;
  ]
