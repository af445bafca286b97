open Jir

let parse = Parser.parse_program

let stmt_testable = Alcotest.testable Ast.pp_stmt Ast.equal_stmt

let parse_body src =
  let program = parse (Printf.sprintf "class C { method m(): void { %s } }" src) in
  match program.p_classes with
  | [ { c_methods = [ m ]; _ } ] -> m.m_body
  | _ -> Alcotest.fail "unexpected program shape"

let check_stmts msg expected src =
  Alcotest.check (Alcotest.list stmt_testable) msg expected (parse_body src)

let test_new () = check_stmts "new" [ Ast.New ("x", "Button") ] "x = new Button();"

let test_copy () = check_stmts "copy" [ Ast.Copy ("x", "y") ] "x = y;"

let test_field_read () = check_stmts "read" [ Ast.Read_field ("x", "y", "f") ] "x = y.f;"

let test_field_write () = check_stmts "write" [ Ast.Write_field ("x", "f", "y") ] "x.f = y;"

let test_layout_id () =
  check_stmts "layout id" [ Ast.Read_layout_id ("x", "main") ] "x = R.layout.main;"

let test_view_id () = check_stmts "view id" [ Ast.Read_view_id ("x", "btn") ] "x = R.id.btn;"

let test_const_int () = check_stmts "int" [ Ast.Const_int ("x", 7) ] "x = 7;"

let test_const_null () = check_stmts "null" [ Ast.Const_null "x" ] "x = null;"

let test_cast () = check_stmts "cast" [ Ast.Cast ("x", "Button", "y") ] "x = (Button) y;"

let test_invoke_with_lhs () =
  check_stmts "invoke lhs"
    [ Ast.Invoke (Some "z", "x", "m", [ "a"; "b" ]) ]
    "z = x.m(a, b);"

let test_invoke_no_lhs () =
  check_stmts "invoke void" [ Ast.Invoke (None, "x", "m", []) ] "x.m();"

let test_returns () =
  check_stmts "returns" [ Ast.Return (Some "x") ] "return x;";
  check_stmts "bare return" [ Ast.Return None ] "return;"

let test_class_header () =
  let program =
    parse "class A extends B implements I, J { field f: int; field g: A; }"
  in
  match program.p_classes with
  | [ c ] ->
      Alcotest.check Alcotest.string "name" "A" c.c_name;
      Alcotest.check Alcotest.(option string) "super" (Some "B") c.c_super;
      Alcotest.check Alcotest.(list string) "interfaces" [ "I"; "J" ] c.c_interfaces;
      Alcotest.check Alcotest.int "fields" 2 (List.length c.c_fields);
      Alcotest.check Alcotest.bool "field type" true
        (List.assoc "g" c.c_fields = Ast.Tclass "A")
  | _ -> Alcotest.fail "expected one class"

let test_interface () =
  let program = parse "interface I { method m(x: View): void { } }" in
  match program.p_classes with
  | [ c ] -> Alcotest.check Alcotest.bool "kind" true (c.c_kind = `Interface)
  | _ -> Alcotest.fail "expected one interface"

let test_locals_and_params () =
  let program =
    parse "class C { method m(a: int, b: View): View { var t: Button; return b; } }"
  in
  match program.p_classes with
  | [ { c_methods = [ m ]; _ } ] ->
      Alcotest.check Alcotest.int "params" 2 (List.length m.m_params);
      Alcotest.check Alcotest.int "locals" 1 (List.length m.m_locals);
      Alcotest.check Alcotest.bool "ret" true (m.m_ret = Some (Ast.Tclass "View"))
  | _ -> Alcotest.fail "unexpected shape"

let test_void_ret () =
  let program = parse "class C { method m() { } method n(): void { } }" in
  match program.p_classes with
  | [ { c_methods = [ m; n ]; _ } ] ->
      Alcotest.check Alcotest.bool "implicit void" true (m.m_ret = None);
      Alcotest.check Alcotest.bool "explicit void" true (n.m_ret = None)
  | _ -> Alcotest.fail "unexpected shape"

let expect_error msg src =
  match Parser.parse_program_result src with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected a parse error" msg

let test_errors () =
  expect_error "missing semicolon" "class C { method m(): void { x = y } }";
  expect_error "bad resource category" "class C { method m(): void { x = R.string.a; } }";
  expect_error "stray token" "class C { method m(): void { 42; } }";
  expect_error "unterminated class" "class C { method m(): void { }";
  expect_error "toplevel junk" "banana";
  expect_error "void as param type" "class C { method m(x: void): void { } }"

let expect_message msg expected src =
  match Parser.parse_program_result src with
  | Error got -> Alcotest.check Alcotest.string msg expected got
  | Ok _ -> Alcotest.failf "%s: expected an error" msg

(* Exact [line:col]: a column per byte, a new line after each '\n'. *)
let test_error_position () =
  expect_message "first token of a line"
    "parse error at 2:3: expected 'field', 'method' or '}', found identifier \"banana\""
    "class C {\n  banana\n}";
  expect_message "middle of a line" "parse error at 2:27: expected an expression, found ';'"
    "class C {\n  method m() { x = y; z = ; }\n}";
  expect_message "just after a multi-line comment"
    "parse error at 4:5: expected 'field', 'method' or '}', found identifier \"banana\""
    "class C {\n/* one\n   two\n */ banana\n}";
  expect_message "end of input reports the last token" "parse error at 2:10: unexpected end of input"
    "class C {\n  field f:\n\n";
  expect_message "unterminated body at end of input" "parse error at 2:15: unterminated class body"
    "class C {\n  field f: int;   ";
  expect_message "lexical error on line 3" "lexical error at 3:5: unexpected character '#'"
    "class C {\n  field f: int;\n  x # y\n}";
  expect_message "unterminated comment at its opening" "lexical error at 2:17: unterminated comment"
    "class C {\n  field f: int; /* never\n closed }\n";
  expect_message "a later lexical error wins over an earlier syntax error"
    "lexical error at 3:1: unexpected character '#'" "banana {\n\n#"

let test_r_misuse () =
  expect_error "bare R" "class C { method m(): void { x = R; } }";
  expect_error "R without field" "class C { method m(): void { x = R.layout; } }"

let test_comments_everywhere () =
  let program =
    parse
      "// top\nclass C { /* fields */ field f: int; // trailing\n method m(): void { /* body */ x = 1; } }"
  in
  Alcotest.check Alcotest.int "parsed through comments" 1 (List.length program.p_classes)

let test_hex_resource_int () =
  check_stmts "hex literal" [ Ast.Const_int ("x", 0x7f030001) ] "x = 0x7f030001;"

let test_multiple_classes () =
  let program = parse "class A { } class B extends A { } interface I { }" in
  Alcotest.check Alcotest.int "three types" 3 (List.length program.p_classes)

let suite =
  [
    Alcotest.test_case "new" `Quick test_new;
    Alcotest.test_case "copy" `Quick test_copy;
    Alcotest.test_case "field read" `Quick test_field_read;
    Alcotest.test_case "field write" `Quick test_field_write;
    Alcotest.test_case "layout id read" `Quick test_layout_id;
    Alcotest.test_case "view id read" `Quick test_view_id;
    Alcotest.test_case "int constant" `Quick test_const_int;
    Alcotest.test_case "null constant" `Quick test_const_null;
    Alcotest.test_case "cast" `Quick test_cast;
    Alcotest.test_case "invoke with lhs" `Quick test_invoke_with_lhs;
    Alcotest.test_case "invoke without lhs" `Quick test_invoke_no_lhs;
    Alcotest.test_case "returns" `Quick test_returns;
    Alcotest.test_case "class header" `Quick test_class_header;
    Alcotest.test_case "interface" `Quick test_interface;
    Alcotest.test_case "locals and params" `Quick test_locals_and_params;
    Alcotest.test_case "void return forms" `Quick test_void_ret;
    Alcotest.test_case "syntax errors rejected" `Quick test_errors;
    Alcotest.test_case "error message carries position" `Quick test_error_position;
    Alcotest.test_case "multiple classes" `Quick test_multiple_classes;
    Alcotest.test_case "R misuse rejected" `Quick test_r_misuse;
    Alcotest.test_case "comments everywhere" `Quick test_comments_everywhere;
    Alcotest.test_case "hex integer literal" `Quick test_hex_resource_int;
  ]
