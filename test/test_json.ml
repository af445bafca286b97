module J = Util.Json

let parse_ok s = match J.of_string s with Ok v -> v | Error e -> Alcotest.failf "parse: %s" e

let test_scalars () =
  Alcotest.check Alcotest.bool "null" true (parse_ok "null" = J.Null);
  Alcotest.check Alcotest.bool "true" true (parse_ok "true" = J.Bool true);
  Alcotest.check Alcotest.bool "false" true (parse_ok "false" = J.Bool false);
  Alcotest.check Alcotest.bool "int" true (parse_ok "42" = J.Int 42);
  Alcotest.check Alcotest.bool "negative" true (parse_ok "-7" = J.Int (-7));
  Alcotest.check Alcotest.bool "float" true (parse_ok "1.5" = J.Float 1.5);
  Alcotest.check Alcotest.bool "exponent" true (parse_ok "2e3" = J.Float 2000.0)

let test_strings () =
  Alcotest.check Alcotest.bool "plain" true (parse_ok {|"abc"|} = J.String "abc");
  Alcotest.check Alcotest.bool "escapes" true
    (parse_ok {|"a\"b\\c\nd\te"|} = J.String "a\"b\\c\nd\te");
  Alcotest.check Alcotest.bool "unicode ascii" true (parse_ok {|"A"|} = J.String "A")

let test_collections () =
  Alcotest.check Alcotest.bool "array" true
    (parse_ok "[1, 2, 3]" = J.List [ J.Int 1; J.Int 2; J.Int 3 ]);
  Alcotest.check Alcotest.bool "empty array" true (parse_ok "[]" = J.List []);
  Alcotest.check Alcotest.bool "object" true
    (parse_ok {|{"a": 1, "b": [true]}|} = J.Obj [ ("a", J.Int 1); ("b", J.List [ J.Bool true ]) ]);
  Alcotest.check Alcotest.bool "empty object" true (parse_ok "{}" = J.Obj [])

let test_errors () =
  let bad s =
    match J.of_string s with Error _ -> () | Ok _ -> Alcotest.failf "accepted %S" s
  in
  bad "";
  bad "[1,";
  bad "{\"a\"}";
  bad "nul";
  bad "\"unterminated";
  bad "1 2"

(* Nesting is bounded: [max_depth] levels parse, one more is an error
   at the first bracket past the bound, for arrays and objects alike. *)
let test_depth_bound () =
  let arrays n = String.make n '[' ^ String.make n ']' in
  let objects n =
    String.concat "" (List.init n (fun _ -> {|{"a":|})) ^ "null" ^ String.make n '}'
  in
  List.iter
    (fun (what, nest) ->
      (match J.of_string (nest J.max_depth) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s at max_depth refused: %s" what e);
      match J.of_string (nest (J.max_depth + 1)) with
      | Ok _ -> Alcotest.failf "%s past max_depth accepted" what
      | Error e ->
          let offset =
            if what = "arrays" then J.max_depth else J.max_depth * String.length {|{"a":|}
          in
          Alcotest.(check bool)
            (what ^ " error names the offset") true
            (String.starts_with ~prefix:(Printf.sprintf "at offset %d:" offset) e))
    [ ("arrays", arrays); ("objects", objects) ]

let test_member () =
  let v = parse_ok {|{"x": {"y": 3}}|} in
  Alcotest.check Alcotest.bool "nested member" true
    (Option.bind (J.member "x" v) (J.member "y") = Some (J.Int 3));
  Alcotest.check Alcotest.bool "missing" true (J.member "z" v = None)

let test_numeric_equal () =
  Alcotest.check Alcotest.bool "int = integral float" true (J.equal (J.Int 2) (J.Float 2.0));
  Alcotest.check Alcotest.bool "int <> fractional float" false (J.equal (J.Int 2) (J.Float 2.5));
  Alcotest.check Alcotest.bool "order insensitive fields are NOT equal" false
    (J.equal (J.Obj [ ("a", J.Int 1); ("b", J.Int 2) ]) (J.Obj [ ("b", J.Int 2); ("a", J.Int 1) ]))

(* Astral (non-BMP) code points: the writer must emit UTF-16 surrogate
   pairs (one \uXXXX only reaches the BMP) and the parser must combine
   them back into the original 4-byte UTF-8 sequence. *)
let test_astral_roundtrip () =
  (* U+1F600 GRINNING FACE as raw UTF-8 bytes *)
  let grin = "\xF0\x9F\x98\x80" in
  let gclef = "\xF0\x9D\x84\x9E" (* U+1D11E MUSICAL SYMBOL G CLEF *) in
  let printed = J.to_string (J.String grin) in
  Alcotest.check Alcotest.string "writer emits the surrogate pair" {|"\ud83d\ude00"|} printed;
  Alcotest.check Alcotest.bool "print/parse round-trip" true
    (parse_ok printed = J.String grin);
  Alcotest.check Alcotest.bool "parser combines an escaped pair" true
    (parse_ok {|"\uD834\uDD1E"|} = J.String gclef);
  (* mixed BMP / astral content survives both directions *)
  let mixed = "a" ^ grin ^ "\xE2\x82\xAC" ^ gclef ^ "z" (* a😀€𝄞z *) in
  Alcotest.check Alcotest.bool "mixed string round-trips" true
    (parse_ok (J.to_string (J.String mixed)) = J.String mixed);
  Alcotest.check Alcotest.bool "pretty form round-trips too" true
    (parse_ok (J.to_string ~pretty:true (J.String mixed)) = J.String mixed);
  (* object keys go through the same escaper *)
  let keyed = J.Obj [ (grin, J.Int 1) ] in
  Alcotest.check Alcotest.bool "astral object key round-trips" true
    (J.equal (parse_ok (J.to_string keyed)) keyed)

let test_unpaired_surrogates () =
  (* a lone high or low surrogate escape is tolerated (lenient
     per-escape byte encoding), not an error *)
  let lone_hi = parse_ok {|"\uD83Dx"|} and lone_lo = parse_ok {|"\uDE00"|} in
  (match (lone_hi, lone_lo) with
  | J.String hi, J.String lo ->
      Alcotest.check Alcotest.bool "high surrogate kept, tail intact" true
        (String.length hi > 1 && hi.[String.length hi - 1] = 'x');
      Alcotest.check Alcotest.bool "low surrogate kept" true (String.length lo > 0)
  | _ -> Alcotest.fail "expected strings");
  (* high surrogate followed by a non-surrogate escape: the follower
     must be decoded on its own (the parser rewinds) *)
  match parse_ok {|"\uD83D\u0041"|} with
  | J.String s ->
      Alcotest.check Alcotest.bool "follower decoded separately" true
        (String.length s > 1 && s.[String.length s - 1] = 'A')
  | _ -> Alcotest.fail "expected a string"

(* Byte-stability of the lenient surrogate handling, both directions.
   The parser encodes an unpaired \uXXXX surrogate as CESU-8; the
   writer must escape those three bytes back to \uXXXX (not leak them
   as raw non-UTF-8 output), EXCEPT when a high+low pair sits adjacent
   in the value — escaping that would make the parser recombine the
   pair into one astral code point, different bytes from the input. *)
let test_surrogate_byte_stability () =
  let reparse text = parse_ok (J.to_string (parse_ok text)) in
  (* text -> value -> text: a lone low surrogate re-escapes verbatim *)
  Alcotest.check Alcotest.string "lone low re-escapes" {|"\udc00"|}
    (J.to_string (parse_ok {|"\uDC00"|}));
  Alcotest.check Alcotest.string "lone high re-escapes" {|"\ud83dx"|}
    (J.to_string (parse_ok {|"\uD83Dx"|}));
  (* and the reparse yields the same value bytes *)
  Alcotest.check Alcotest.bool "lone low value stable" true
    (reparse {|"\uDC00"|} = parse_ok {|"\uDC00"|});
  Alcotest.check Alcotest.bool "two highs value stable" true
    (reparse {|"\uD800\uD800"|} = parse_ok {|"\uD800\uD800"|});
  Alcotest.check Alcotest.bool "two lows value stable" true
    (reparse {|"\uDC00\uDC00"|} = parse_ok {|"\uDC00\uDC00"|});
  (* value -> text -> value: CESU-8 bytes in a String survive *)
  let lone_lo = "\xED\xB0\x80" (* CESU-8 U+DC00 *) in
  let lone_hi = "\xED\xA0\xBD" (* CESU-8 U+D83D *) in
  let cesu_pair = lone_hi ^ "\xED\xB8\x80" (* CESU-8 D83D DE00, adjacent *) in
  List.iter
    (fun s ->
      Alcotest.check Alcotest.bool "value bytes stable" true
        (parse_ok (J.to_string (J.String s)) = J.String s))
    [ lone_lo; lone_hi; cesu_pair; "a" ^ lone_lo ^ "z"; lone_lo ^ lone_lo ];
  (* the writer's output for lone surrogates is pure ASCII (no raw
     CESU-8 leaks into the wire format) *)
  String.iter
    (fun c -> if Char.code c >= 0x80 then Alcotest.fail "raw byte leaked")
    (J.to_string (J.String lone_lo));
  (* real astral content still writes as a pair and recombines *)
  let grin = "\xF0\x9F\x98\x80" in
  Alcotest.check Alcotest.bool "astral still round-trips" true
    (parse_ok (J.to_string (J.String grin)) = J.String grin)

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun n -> J.Int n) (int_range (-1000000) 1000000);
        map (fun s -> J.String s) (string_size ~gen:printable (0 -- 15));
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then scalar
      else
        oneof
          [
            scalar;
            map (fun xs -> J.List xs) (list_size (0 -- 4) (self (depth - 1)));
            map
              (fun kvs ->
                (* object keys must be distinct for roundtrip equality *)
                J.Obj (List.mapi (fun i (k, v) -> (Printf.sprintf "k%d_%s" i k, v)) kvs))
              (list_size (0 -- 4) (pair (string_size ~gen:(char_range 'a' 'z') (0 -- 5)) (self (depth - 1))));
          ])
    3

let roundtrip_compact =
  QCheck.Test.make ~name:"compact print/parse roundtrip" ~count:500
    (QCheck.make ~print:(J.to_string ~pretty:true) json_gen)
    (fun v ->
      match J.of_string (J.to_string v) with
      | Ok v' -> J.equal v v'
      | Error e -> QCheck.Test.fail_reportf "reparse: %s" e)

let roundtrip_pretty =
  QCheck.Test.make ~name:"pretty print/parse roundtrip" ~count:300
    (QCheck.make ~print:(J.to_string ~pretty:true) json_gen)
    (fun v ->
      match J.of_string (J.to_string ~pretty:true v) with
      | Ok v' -> J.equal v v'
      | Error e -> QCheck.Test.fail_reportf "reparse: %s" e)

let test_export_connectbot () =
  let r = Gator.Analysis.analyze (Corpus.Connectbot.app ()) in
  let text = Gator.Export.to_string ~pretty:true r in
  match J.of_string text with
  | Error e -> Alcotest.failf "export does not parse: %s" e
  | Ok doc ->
      Alcotest.check Alcotest.bool "app name" true
        (J.member "app" doc = Some (J.String "ConnectBot"));
      let count field =
        match Option.bind (J.member field doc) J.to_list with
        | Some xs -> List.length xs
        | None -> Alcotest.failf "missing %s" field
      in
      Alcotest.check Alcotest.int "10 operations" 10 (count "operations");
      Alcotest.check Alcotest.int "10 views" 10 (count "views");
      Alcotest.check Alcotest.int "1 interaction" 1 (count "interactions");
      Alcotest.check Alcotest.int "1 activity" 1 (count "activities")

let test_export_transitions () =
  let app =
    match
      Framework.App.of_source ~name:"T" ~layouts:[]
        ~code:
          {|class A extends Activity { method onCreate(): void { t = new B(); this.startActivity(t); } }
            class B extends Activity { method onCreate(): void { } }|}
    with
    | Ok app -> app
    | Error e -> Alcotest.fail e
  in
  let r = Gator.Analysis.analyze app in
  match J.of_string (Gator.Export.to_string r) with
  | Error e -> Alcotest.failf "export: %s" e
  | Ok doc -> (
      match Option.bind (J.member "transitions" doc) J.to_list with
      | Some [ edge ] ->
          Alcotest.check Alcotest.bool "edge" true
            (J.member "from" edge = Some (J.String "A") && J.member "to" edge = Some (J.String "B"))
      | _ -> Alcotest.fail "expected one transition")

let suite =
  [
    Alcotest.test_case "scalars" `Quick test_scalars;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "collections" `Quick test_collections;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "nesting depth bound" `Quick test_depth_bound;
    Alcotest.test_case "member" `Quick test_member;
    Alcotest.test_case "numeric equality" `Quick test_numeric_equal;
    Alcotest.test_case "astral round-trip" `Quick test_astral_roundtrip;
    Alcotest.test_case "unpaired surrogates tolerated" `Quick test_unpaired_surrogates;
    Alcotest.test_case "surrogate byte stability" `Quick test_surrogate_byte_stability;
    QCheck_alcotest.to_alcotest roundtrip_compact;
    QCheck_alcotest.to_alcotest roundtrip_pretty;
    Alcotest.test_case "export: ConnectBot document" `Quick test_export_connectbot;
    Alcotest.test_case "export: transitions" `Quick test_export_transitions;
  ]
