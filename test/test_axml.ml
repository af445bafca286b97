let parse_ok src =
  match Axml.parse src with Ok t -> t | Error e -> Alcotest.failf "parse failed: %s" e

let test_self_closing () =
  let t = parse_ok "<Button />" in
  Alcotest.check Alcotest.string "tag" "Button" t.Axml.tag;
  Alcotest.check Alcotest.int "no children" 0 (List.length t.Axml.children)

let test_attributes () =
  let t = parse_ok {|<Button android:id="@+id/ok" text='hi' />|} in
  Alcotest.check Alcotest.(option string) "id attr" (Some "@+id/ok") (Axml.attr t "android:id");
  Alcotest.check Alcotest.(option string) "single-quoted" (Some "hi") (Axml.attr t "text");
  Alcotest.check Alcotest.(option string) "absent" None (Axml.attr t "nope")

let test_nesting () =
  let t = parse_ok "<A><B><C /></B><D /></A>" in
  match t.Axml.children with
  | [ b; d ] ->
      Alcotest.check Alcotest.string "b" "B" b.Axml.tag;
      Alcotest.check Alcotest.string "d" "D" d.Axml.tag;
      Alcotest.check Alcotest.int "c nested" 1 (List.length b.Axml.children)
  | _ -> Alcotest.fail "expected two children"

let test_declaration_and_comments () =
  let t = parse_ok "<?xml version=\"1.0\"?>\n<!-- top --><A><!-- inner --><B /></A>" in
  Alcotest.check Alcotest.int "comment skipped" 1 (List.length t.Axml.children)

let test_text_ignored () =
  let t = parse_ok "<A>some text<B />more</A>" in
  Alcotest.check Alcotest.int "text skipped" 1 (List.length t.Axml.children)

let test_entities () =
  let t = parse_ok {|<A v="a&amp;b&lt;c&gt;d&quot;e&apos;f" />|} in
  Alcotest.check Alcotest.(option string) "decoded" (Some "a&b<c>d\"e'f") (Axml.attr t "v")

let expect_error msg src =
  match Axml.parse src with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected an error" msg

let test_errors () =
  expect_error "mismatched close" "<A></B>";
  expect_error "unterminated" "<A><B />";
  expect_error "trailing" "<A /><B />";
  expect_error "bad entity" {|<A v="&bogus;" />|};
  expect_error "unquoted attr" "<A v=3 />";
  expect_error "empty input" "   "

let test_error_position () =
  match Axml.parse "<A>\n  <B>\n</A>" with
  | Error msg -> Alcotest.check Alcotest.bool "has position" true (String.contains msg ':')
  | Ok _ -> Alcotest.fail "expected error"

let test_pp_roundtrip_manual () =
  let t =
    Axml.element "A"
      ~attrs:[ ("x", "1 & 2"); ("y", "<z>") ]
      ~children:[ Axml.element "B"; Axml.element "C" ~children:[ Axml.element "D" ] ]
  in
  let t' = parse_ok (Axml.to_string t) in
  Alcotest.check Alcotest.bool "roundtrip" true (Axml.equal t t')

let xml_gen =
  let open QCheck.Gen in
  let tag = map (Printf.sprintf "Tag%d") (int_range 0 9) in
  let attr = pair (map (Printf.sprintf "attr%d") (int_range 0 5)) (string_size ~gen:printable (0 -- 10)) in
  let dedup_attrs attrs =
    let seen = Hashtbl.create 4 in
    List.filter
      (fun (k, _) ->
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      attrs
  in
  fix
    (fun self depth ->
      let node =
        map3
          (fun tag attrs children -> Axml.element tag ~attrs:(dedup_attrs attrs) ~children)
          tag (list_size (0 -- 3) attr)
          (if depth = 0 then return [] else list_size (0 -- 3) (self (depth - 1)))
      in
      node)
    2

let qcheck_roundtrip =
  QCheck.Test.make ~name:"xml print/parse roundtrip" ~count:300
    (QCheck.make ~print:Axml.to_string xml_gen)
    (fun t ->
      match Axml.parse (Axml.to_string t) with
      | Ok t' -> Axml.equal t t'
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e)

(* Hostile bytes.  Every input must come back as [Ok] or [Error] —
   never an exception — and quickly: the reader used to recurse once
   per nesting level with no bound, so deep input cost quadratic time
   (a million nested elements took seconds). *)

let corpus_layouts =
  lazy
    (Corpus.Connectbot.act_console_xml :: Corpus.Connectbot.item_terminal_xml
    :: List.concat_map
         (fun name ->
           match Corpus.Apps.by_name name with
           | None -> Alcotest.failf "no corpus app %s" name
           | Some spec ->
               let app = Corpus.Apps.generate spec in
               List.map
                 (fun def -> Axml.to_string (Layouts.Layout.to_xml def))
                 (Layouts.Package.raw_layouts app.Framework.App.package))
         [ "ConnectBot"; "APV"; "XBMC" ])

(* Byte strings that steer mutations toward the reader's edges: markup
   openers and closers, quotes, entities, names, and line breaks that
   move positions. *)
let fragments =
  [| "<"; ">"; "</"; "/>"; "<!--"; "-->"; "<?"; "?>"; "="; "\""; "'"; "&"; ";"; "&amp;"; "&bogus;";
     "<a>"; "</a>"; "<LinearLayout>"; "</LinearLayout>"; "android:id=\"@+id/x\""; "layout=\"@layout/y\"";
     "<include "; "<fragment "; "@+id/"; " "; "\n"; "\r\n"; "\000"; "\xff"; "\xc3\xa9" |]

let mutate = Byte_mutation.mutate ~fragments

(* [levels] nested copies of [open_]/[close], around [inner]. *)
let nest ~levels ~open_ ~close inner =
  let b = Buffer.create ((levels * (String.length open_ + String.length close)) + String.length inner) in
  for _ = 1 to levels do
    Buffer.add_string b open_
  done;
  Buffer.add_string b inner;
  for _ = 1 to levels do
    Buffer.add_string b close
  done;
  Buffer.contents b

let time_bound = 1.0

(* Both readers on one input: a result of either kind, within the time
   bound. *)
let check_hostile src =
  let run what parse =
    let t0 = Unix.gettimeofday () in
    (match parse src with
    | Ok _ | Error _ -> ()
    | exception e ->
        QCheck.Test.fail_reportf "%s raised %s on a %d-byte input" what (Printexc.to_string e)
          (String.length src));
    let dt = Unix.gettimeofday () -. t0 in
    if dt > time_bound then
      QCheck.Test.fail_reportf "%s took %.2f s on a %d-byte input" what dt (String.length src)
  in
  run "Axml.parse" (fun s -> Result.map ignore (Axml.parse s));
  run "Layout.parse" (fun s -> Result.map ignore (Layouts.Layout.parse ~name:"fuzz" s));
  true

(* A mutated corpus layout, sometimes wrapped in enough containers to
   straddle the depth bound first. *)
let fuzz_hostile =
  QCheck.Test.make ~count:1500 ~name:"hostile bytes: mutated, truncated and deep layouts"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Util.Prng.create seed in
      let src = ref (Util.Prng.choose rng (Lazy.force corpus_layouts)) in
      if Util.Prng.chance rng 0.2 then
        src :=
          nest
            ~levels:(Axml.max_depth - 3 + Util.Prng.int rng 6)
            ~open_:"<FrameLayout>" ~close:"</FrameLayout>" !src;
      for _ = 0 to Util.Prng.int rng 6 do
        src := mutate rng !src
      done;
      check_hostile !src)

let parse_timed src =
  let t0 = Unix.gettimeofday () in
  let r = Axml.parse src in
  (r, Unix.gettimeofday () -. t0)

let test_depth_bound () =
  let linear levels = nest ~levels ~open_:"<LinearLayout>" ~close:"</LinearLayout>" "<Button />" in
  (* the button sits one level below the nested containers *)
  (match Axml.parse (linear (Axml.max_depth - 1)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth %d refused: %s" Axml.max_depth e);
  (match Layouts.Layout.parse ~name:"deep" (linear (Axml.max_depth - 1)) with
  | Ok d -> Alcotest.check Alcotest.int "layout size" Axml.max_depth (Layouts.Layout.size d)
  | Error e -> Alcotest.failf "layout at depth %d refused: %s" Axml.max_depth e);
  (match Axml.parse (linear Axml.max_depth) with
  | Ok _ -> Alcotest.failf "depth %d accepted" (Axml.max_depth + 1)
  | Error e ->
      let line = String.split_on_char ':' e |> List.hd in
      Alcotest.check Alcotest.string "error at line 1" "1" line);
  List.iter
    (fun (what, src) ->
      match parse_timed src with
      | Ok _, _ -> Alcotest.failf "%s accepted" what
      | Error _, dt ->
          if dt > time_bound then Alcotest.failf "%s took %.2f s to refuse" what dt)
    [
      ("100k nested layouts", linear 100_000);
      ("1M unclosed elements", String.concat "" (List.init 1_000_000 (fun _ -> "<a>")));
    ]

let suite =
  [
    Alcotest.test_case "self closing" `Quick test_self_closing;
    Alcotest.test_case "attributes" `Quick test_attributes;
    Alcotest.test_case "nesting" `Quick test_nesting;
    Alcotest.test_case "xml declaration and comments" `Quick test_declaration_and_comments;
    Alcotest.test_case "text content ignored" `Quick test_text_ignored;
    Alcotest.test_case "entities" `Quick test_entities;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "error positions" `Quick test_error_position;
    Alcotest.test_case "pp roundtrip" `Quick test_pp_roundtrip_manual;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    Alcotest.test_case "nesting past the depth bound is refused quickly" `Quick test_depth_bound;
    QCheck_alcotest.to_alcotest fuzz_hostile;
  ]
