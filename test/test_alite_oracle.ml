(* The ALite front end against its reference ([Alite_oracle], the
   whole-file tokenizer and token-array parser it replaced).  Every
   source the repository ships must parse to the same AST under both,
   and on hostile bytes [parse_program_result] must return exactly the
   reference's [Ok] AST or [Error] message, never raise. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Shipped examples, found from the test executable rather than the
   working directory: [dune runtest] copies them beside the build's
   [test/], and the source tree is three levels above the executable
   ([_build/default/test/main.exe]), wherever [dune exec] runs it
   from. *)
let example_files =
  lazy
    (let exe_dir = Filename.dirname Sys.executable_name in
     let roots = [ Filename.concat exe_dir ".."; Filename.concat exe_dir "../../.." ] in
     List.map
       (fun file ->
         match List.find_opt Sys.file_exists (List.map (fun root -> Filename.concat root file) roots) with
         | Some path -> path
         | None -> Alcotest.failf "%s not found from %s" file exe_dir)
       [ "examples/apps/connectbot.alite"; "examples/apps/todo/src/listeners.alite";
         "examples/apps/todo/src/main_activity.alite" ])

(* The 20 corpus apps, rendered as the benchmark renders them. *)
let corpus =
  lazy
    (List.map
       (fun (spec : Corpus.Spec.t) ->
         (spec.sp_name, Jir.Pp.program_to_string (Corpus.Apps.generate spec).program))
       Corpus.Apps.specs)

let sources =
  lazy
    (Lazy.force corpus
    @ [ ("ConnectBot", Corpus.Connectbot.source) ]
    @ List.map (fun path -> (path, read_file path)) (Lazy.force example_files))

let describe = function
  | Ok p -> Fmt.str "Ok (%d classes)" (List.length p.Jir.Ast.p_classes)
  | Error e -> Fmt.str "Error %S" e

let same_outcome a b =
  match (a, b) with
  | Ok p, Ok q -> Jir.Ast.equal_program p q
  | Error e, Error f -> String.equal e f
  | _ -> false

(* [None] if the two front ends agree on [src]; otherwise what differs. *)
let disagreement src =
  match Jir.Parser.parse_program_result src with
  | exception e -> Some (Fmt.str "parse_program_result raised %s" (Printexc.to_string e))
  | actual ->
      let expected = Alite_oracle.Parser.parse_program_result src in
      if same_outcome actual expected then None
      else Some (Fmt.str "got %s, reference %s" (describe actual) (describe expected))

let test_shipped_sources () =
  List.iter
    (fun (name, src) ->
      (match Jir.Parser.parse_program_result src with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s does not parse: %s" name e);
      match disagreement src with
      | None -> ()
      | Some d -> Alcotest.failf "%s: %s" name d)
    (Lazy.force sources)

(* Byte strings that steer mutations toward the lexer's and parser's
   edges: comment openers, illegal bytes, numeric prefixes, resource
   reads, keywords, and line breaks that move positions. *)
let fragments =
  [| "/*"; "*/"; "//"; "#"; "\n"; "\r\n"; " "; "0x"; "0X"; "99999999999999999999999"; "R."; "R.id.";
     "R.layout.?"; "?"; "."; "="; ";"; "{"; "}"; "("; ")"; ":"; ","; "class "; "interface ";
     "method "; "field "; "var "; "new "; "return"; "null"; "int"; "void"; "x"; "$_9"; "\xc3\xa9"; "\000" |]

let mutate = Byte_mutation.mutate ~fragments

let check_mutant src =
  match disagreement src with
  | None -> true
  | Some d -> QCheck.Test.fail_reportf "%s on a %d-byte mutant" d (String.length src)

(* Most mutants come from the small shipped sources; one in four from a
   corpus app, so the big files are mutated too without dominating the
   run time. *)
let fuzz_mutations =
  QCheck.Test.make ~count:400 ~name:"byte mutations of shipped sources match the reference"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Util.Prng.create seed in
      let all = Lazy.force sources in
      let small = List.filter (fun (_, s) -> String.length s < 20_000) all in
      let _, src = Util.Prng.choose rng (if Util.Prng.chance rng 0.25 then all else small) in
      let src = ref src in
      for _ = 0 to Util.Prng.int rng 4 do
        src := mutate rng !src
      done;
      check_mutant !src)

(* Short random token soups: nearly every one is an error, so these
   cover the error messages and positions densely. *)
let fuzz_soup =
  QCheck.Test.make ~count:2000 ~name:"random token soups match the reference"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Util.Prng.create seed in
      let pieces =
        List.init (Util.Prng.int rng 40) (fun _ ->
            if Util.Prng.chance rng 0.05 then String.make 1 (Byte_mutation.random_byte rng)
            else fragments.(Util.Prng.int rng (Array.length fragments)))
      in
      check_mutant (String.concat (if Util.Prng.bool rng then " " else "") pieces))

(* The front end's allocation contract: parsing the rendered corpus
   allocates at most two minor words per source byte (the whole-file
   token list used to cost about ten). *)
let test_allocation () =
  let corpus = Lazy.force corpus in
  let bytes = List.fold_left (fun n (_, s) -> n + String.length s) 0 corpus in
  let before = Gc.minor_words () in
  List.iter (fun (_, src) -> ignore (Sys.opaque_identity (Jir.Parser.parse_program src))) corpus;
  let per_byte = (Gc.minor_words () -. before) /. float_of_int bytes in
  if per_byte > 2.0 then Alcotest.failf "parsing allocated %.2f minor words per source byte" per_byte

let suite =
  [
    Alcotest.test_case "shipped sources parse as the reference" `Quick test_shipped_sources;
    Alcotest.test_case "at most 2 minor words per source byte" `Quick test_allocation;
    QCheck_alcotest.to_alcotest ~long:true fuzz_mutations;
    QCheck_alcotest.to_alcotest ~long:true fuzz_soup;
  ]
