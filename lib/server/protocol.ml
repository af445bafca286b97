(* Wire protocol of the query daemon.

   Framing: every message (request or response) is one frame —
   the payload's byte length in ASCII decimal, a single '\n', then the
   payload, which is a UTF-8 JSON document ([Util.Json]).  The length
   line makes truncation detectable (a short read is a broken frame,
   not a silent prefix) and caps hostile payloads before a byte of
   JSON is parsed.

   Requests are objects with a "method" field; responses are either
   {"ok": <payload>, "generation"?: n} or
   {"error": {"code": <slug>, "message": <text>}}.  Every hostile
   input maps to a structured error envelope — the daemon itself never
   dies on a request. *)

module J = Util.Json

let max_frame = 4 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Frame IO *)

type frame_error = Eof | Bad_frame of string | Oversized of int

let pp_frame_error ppf = function
  | Eof -> Fmt.string ppf "connection closed"
  | Bad_frame reason -> Fmt.pf ppf "bad frame: %s" reason
  | Oversized n -> Fmt.pf ppf "oversized frame: %d bytes (max %d)" n max_frame

(* The length line: bare ASCII digits, at most 10 of them (enough for
   any length the cap admits), terminated by '\n'. *)
let read_length ic =
  let buf = Buffer.create 12 in
  let rec go () =
    match input_char ic with
    | '\n' ->
        if Buffer.length buf = 0 then Error (Bad_frame "empty length line")
        else Ok (int_of_string (Buffer.contents buf))
    | '0' .. '9' as c ->
        if Buffer.length buf >= 10 then Error (Bad_frame "length line too long")
        else begin
          Buffer.add_char buf c;
          go ()
        end
    | c -> Error (Bad_frame (Printf.sprintf "byte %C in length line" c))
  in
  try go () with End_of_file -> if Buffer.length buf = 0 then Error Eof else Error (Bad_frame "eof in length line")

let read_frame ic =
  match read_length ic with
  | Error _ as e -> e
  | Ok len ->
      if len > max_frame then Error (Oversized len)
      else begin
        let payload = Bytes.create len in
        try
          really_input ic payload 0 len;
          Ok (Bytes.unsafe_to_string payload)
        with End_of_file -> Error (Bad_frame "eof inside payload")
      end

let write_frame oc payload =
  output_string oc (string_of_int (String.length payload));
  output_char oc '\n';
  output_string oc payload;
  flush oc

(* ------------------------------------------------------------------ *)
(* Error envelope *)

type error_code =
  | E_parse  (** payload is not JSON *)
  | E_bad_frame  (** framing violated (bad length line, truncated payload) *)
  | E_oversized
  | E_unknown_method
  | E_unknown_app
  | E_unknown_node  (** the referenced node/listener was never interned by the app's graph *)
  | E_bad_params
  | E_internal

let code_name = function
  | E_parse -> "parse"
  | E_bad_frame -> "bad-frame"
  | E_oversized -> "oversized"
  | E_unknown_method -> "unknown-method"
  | E_unknown_app -> "unknown-app"
  | E_unknown_node -> "unknown-node"
  | E_bad_params -> "bad-params"
  | E_internal -> "internal"

let error code message =
  J.Obj [ ("error", J.Obj [ ("code", J.String (code_name code)); ("message", J.String message) ]) ]

let ok ?generation payload =
  J.Obj
    (("ok", payload)
    :: (match generation with None -> [] | Some g -> [ ("generation", J.Int g) ]))

(* ------------------------------------------------------------------ *)
(* Request vocabulary *)

type request =
  | R_ping
  | R_list
  | R_load of string  (** load (or re-serve) a corpus app by name *)
  | R_points_to of { app : string; node : Gator.Node.t; budget : int option }
  | R_views_of_listener of { app : string; listener : Gator.Node.listener_abs }
  | R_activities_of_id of { app : string; id : string }
  | R_patch of { app : string; edits : J.t }
      (** edits carried as raw JSON ([Corpus.Patch.of_json] grammar) so
          the daemon can persist them verbatim for crash recovery *)
  | R_stats of string
  | R_shutdown

(* --- encoders (the client side) --- *)

let mid_fields (m : Gator.Node.mid) =
  [
    ("cls", J.String m.Gator.Node.mid_cls);
    ("meth", J.String m.Gator.Node.mid_name);
    ("arity", J.Int m.Gator.Node.mid_arity);
  ]

let node_to_json = function
  | Gator.Node.N_var (m, v) -> J.Obj [ ("var", J.Obj (mid_fields m @ [ ("name", J.String v) ])) ]
  | Gator.Node.N_field f -> J.Obj [ ("field", J.String f) ]
  | Gator.Node.N_ret m -> J.Obj [ ("ret", J.Obj (mid_fields m)) ]

let listener_to_json = function
  | Gator.Node.L_act cls -> J.Obj [ ("act", J.String cls) ]
  | Gator.Node.L_alloc site ->
      (* the allocated class and the enclosing method's class are both
         "cls", so the enclosing method gets its own "in" object *)
      J.Obj
        [
          ( "alloc",
            J.Obj
              [
                ("cls", J.String site.Gator.Node.a_cls);
                ("stmt", J.Int site.Gator.Node.a_site.Gator.Node.s_stmt);
                ("in", J.Obj (mid_fields site.Gator.Node.a_site.Gator.Node.s_in));
              ] );
        ]

let request_to_json = function
  | R_ping -> J.Obj [ ("method", J.String "ping") ]
  | R_list -> J.Obj [ ("method", J.String "list") ]
  | R_load app -> J.Obj [ ("method", J.String "load"); ("app", J.String app) ]
  | R_points_to { app; node; budget } ->
      J.Obj
        ([
           ("method", J.String "points-to-of-node");
           ("app", J.String app);
           ("node", node_to_json node);
         ]
        @ match budget with None -> [] | Some b -> [ ("budget", J.Int b) ])
  | R_views_of_listener { app; listener } ->
      J.Obj
        [
          ("method", J.String "views-of-listener");
          ("app", J.String app);
          ("listener", listener_to_json listener);
        ]
  | R_activities_of_id { app; id } ->
      J.Obj
        [ ("method", J.String "activities-of-id"); ("app", J.String app); ("id", J.String id) ]
  | R_patch { app; edits } ->
      J.Obj [ ("method", J.String "patch"); ("app", J.String app); ("edits", edits) ]
  | R_stats app -> J.Obj [ ("method", J.String "stats"); ("app", J.String app) ]
  | R_shutdown -> J.Obj [ ("method", J.String "shutdown") ]

(* --- decoders (the daemon side); every malformation is [E_bad_params] --- *)

let ( let* ) = Result.bind

let str_field name j =
  match J.member name j with
  | Some (J.String s) -> Ok s
  | _ -> Error (E_bad_params, Printf.sprintf "missing or non-string %S" name)

let int_field name j =
  match J.member name j with
  | Some (J.Int i) -> Ok i
  | _ -> Error (E_bad_params, Printf.sprintf "missing or non-int %S" name)

let mid_of_json j =
  let* cls = str_field "cls" j in
  let* name = str_field "meth" j in
  let* arity = int_field "arity" j in
  Ok { Gator.Node.mid_cls = cls; mid_name = name; mid_arity = arity }

let node_of_json j =
  match (J.member "var" j, J.member "field" j, J.member "ret" j) with
  | Some v, None, None ->
      let* m = mid_of_json v in
      let* name = str_field "name" v in
      Ok (Gator.Node.N_var (m, name))
  | None, Some (J.String f), None -> Ok (Gator.Node.N_field f)
  | None, Some _, None -> Error (E_bad_params, "\"field\" must be a string")
  | None, None, Some r ->
      let* m = mid_of_json r in
      Ok (Gator.Node.N_ret m)
  | _ -> Error (E_bad_params, "node must have exactly one of \"var\"/\"field\"/\"ret\"")

let listener_of_json j =
  match (J.member "act" j, J.member "alloc" j) with
  | Some (J.String cls), None -> Ok (Gator.Node.L_act cls)
  | Some _, None -> Error (E_bad_params, "\"act\" must be a string")
  | None, Some a ->
      let* cls = str_field "cls" a in
      let* stmt = int_field "stmt" a in
      let* m =
        match J.member "in" a with
        | Some in_ -> mid_of_json in_
        | None -> Error (E_bad_params, "missing \"in\" (enclosing method) in \"alloc\"")
      in
      Ok
        (Gator.Node.L_alloc
           { Gator.Node.a_cls = cls; a_site = { Gator.Node.s_in = m; s_stmt = stmt } })
  | _ -> Error (E_bad_params, "listener must have exactly one of \"act\"/\"alloc\"")

let request_of_json j =
  match J.member "method" j with
  | Some (J.String "ping") -> Ok R_ping
  | Some (J.String "list") -> Ok R_list
  | Some (J.String "shutdown") -> Ok R_shutdown
  | Some (J.String "load") ->
      let* app = str_field "app" j in
      Ok (R_load app)
  | Some (J.String "points-to-of-node") ->
      let* app = str_field "app" j in
      let* node =
        match J.member "node" j with
        | Some n -> node_of_json n
        | None -> Error (E_bad_params, "missing \"node\"")
      in
      let* budget =
        match J.member "budget" j with
        | None -> Ok None
        | Some (J.Int b) when b >= 0 -> Ok (Some b)
        | Some _ -> Error (E_bad_params, "\"budget\" must be a non-negative int")
      in
      Ok (R_points_to { app; node; budget })
  | Some (J.String "views-of-listener") ->
      let* app = str_field "app" j in
      let* listener =
        match J.member "listener" j with
        | Some l -> listener_of_json l
        | None -> Error (E_bad_params, "missing \"listener\"")
      in
      Ok (R_views_of_listener { app; listener })
  | Some (J.String "activities-of-id") ->
      let* app = str_field "app" j in
      let* id = str_field "id" j in
      Ok (R_activities_of_id { app; id })
  | Some (J.String "patch") ->
      let* app = str_field "app" j in
      let* edits =
        match J.member "edits" j with
        | Some (J.List _ as e) -> Ok e
        | Some _ -> Error (E_bad_params, "\"edits\" must be a list")
        | None -> Error (E_bad_params, "missing \"edits\"")
      in
      Ok (R_patch { app; edits })
  | Some (J.String "stats") ->
      let* app = str_field "app" j in
      Ok (R_stats app)
  | Some (J.String m) -> Error (E_unknown_method, Printf.sprintf "unknown method %S" m)
  | Some _ -> Error (E_bad_params, "\"method\" must be a string")
  | None -> Error (E_bad_params, "missing \"method\"")
