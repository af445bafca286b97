(* The query daemon: protocol robustness (hostile frames and payloads
   must produce structured error envelopes and leave the daemon
   serving), a qcheck byte-mutation fuzzer over valid request frames,
   concurrency/consistency (queries racing an incremental patch see
   exactly the pre- or post-patch answer, identified by generation),
   and crash recovery (a restarted daemon reloads Snapshot state and
   answers identically without re-solving). *)

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

let patch_edits =
  J.List
    [
      J.Obj
        [
          ("edit", J.String "add_stmt");
          ("cls", J.String "Activity_0");
          ("meth", J.String "onCreate");
          ("arity", J.Int 0);
          ("stmt", J.Obj [ ("new", J.List [ J.String "srv_tmp"; J.String "android.widget.Button" ]) ]);
        ];
    ]

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
(* Crash recovery: a fresh daemon over the same state directory serves
   the patched solution from its snapshot, without re-solving, and
   answers byte-identically. *)

let test_crash_recovery () =
  let state_dir = Filename.temp_file "gator_state" "" in
  Sys.remove state_dir;
  let cleanup () =
    if Sys.file_exists state_dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat state_dir f)) (Sys.readdir state_dir);
      Unix.rmdir state_dir
    end
  in
  Fun.protect ~finally:cleanup (fun () ->
      let nodes =
        [
          Gator.Node.N_var
            ( { Gator.Node.mid_cls = "Activity_0"; mid_name = "onCreate"; mid_arity = 0 },
              "srv_tmp" );
          Gator.Node.N_field "f";
        ]
      in
      let t1 = mk_server ~state_dir () in
      Alcotest.(check (option string)) "load" None (error_code (handle_json t1 (req_load "XBMC")));
      Alcotest.(check (option string))
        "patch" None
        (error_code
           (handle_json t1 (P.request_to_json (P.R_patch { app = "XBMC"; edits = patch_edits }))));
      let answers t = List.map (fun n -> handle t (req_points_to "XBMC" n)) nodes in
      let before = answers t1 in
      (* "crash": drop the daemon on the floor, start a new one cold *)
      let t2 = mk_server ~state_dir () in
      let load2 = handle_json t2 (req_load "XBMC") in
      Alcotest.(check (option string)) "recovered load" None (error_code load2);
      Alcotest.(check (option int)) "patch generation survives" (Some 1) (generation load2);
      (match J.member "ok" load2 with
      | Some ok -> (
          match J.member "source" ok with
          | Some (J.String "snapshot") -> ()
          | other ->
              Alcotest.failf "expected snapshot recovery, got %s"
                (match other with Some j -> to_s j | None -> "<none>"))
      | None -> Alcotest.fail "load response has no ok payload");
      Alcotest.(check (list string)) "answers identical after restart" before (answers t2);
      (* corrupt snapshot: recovery falls back to a full solve but the
         answers are STILL identical (the patches replay) *)
      let snap = Filename.concat state_dir "XBMC.snap.json" in
      let oc = open_out snap in
      output_string oc "{\"corrupt\": true";
      close_out oc;
      let t3 = mk_server ~state_dir () in
      let load3 = handle_json t3 (req_load "XBMC") in
      Alcotest.(check (option string)) "corrupt-state load" None (error_code load3);
      (match J.member "ok" load3 with
      | Some ok -> (
          match J.member "source" ok with
          | Some (J.String "solved") -> ()
          | other ->
              Alcotest.failf "expected full-solve fallback, got %s"
                (match other with Some j -> to_s j | None -> "<none>"))
      | None -> Alcotest.fail "load response has no ok payload");
      Alcotest.(check (list string)) "answers identical after corrupt state" before (answers t3))

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
    Alcotest.test_case "operand codecs round-trip" `Quick test_codecs;
    Alcotest.test_case "hostile frames against a live daemon" `Quick test_hostile_frames;
    Alcotest.test_case "frame-sized nesting is refused fast" `Quick test_deep_nesting_frame;
    Alcotest.test_case "crash recovery from snapshot state" `Quick test_crash_recovery;
    Alcotest.test_case "concurrent queries during a patch" `Slow test_concurrent_patch;
    QCheck_alcotest.to_alcotest ~long:true test_fuzz;
  ]
