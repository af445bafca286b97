open Lexer

exception Parse_error of string * Lexer.pos

let fail cur message = raise (Parse_error (message, Lexer.pos cur))

(* The current token is not one the grammar allows here.  [wanted]
   describes what would have been, as in ["expected a type"]. *)
let unexpected cur wanted =
  match token cur with
  | EOF -> fail cur "unexpected end of input"
  | t -> fail cur (Fmt.str "%s, found %a" wanted pp_token t)

(* [token] must carry no payload: physical equality is then constructor
   equality, with no polymorphic compare. *)
let expect cur token what = if Lexer.token cur == token then advance cur else unexpected cur ("expected " ^ what)

let accept cur token =
  if Lexer.token cur == token then begin
    advance cur;
    true
  end
  else false

let ident cur =
  match token cur with
  | IDENT s ->
      advance cur;
      s
  | _ -> unexpected cur "expected identifier"

let parse_ty cur =
  match token cur with
  | KW_INT ->
      advance cur;
      Ast.Tint
  | KW_VOID -> fail cur "'void' is only allowed as a return type"
  | IDENT s ->
      advance cur;
      Ast.Tclass s
  | _ -> unexpected cur "expected a type"

let parse_ret_ty cur =
  if accept cur COLON then
    match token cur with
    | KW_VOID ->
        advance cur;
        None
    | KW_INT ->
        advance cur;
        Some Ast.Tint
    | IDENT s ->
        advance cur;
        Some (Ast.Tclass s)
    | _ -> unexpected cur "expected a return type"
  else None

let parse_params cur =
  expect cur LPAREN "'('";
  if accept cur RPAREN then []
  else
    let rec more acc =
      let name = ident cur in
      expect cur COLON "':'";
      let ty = parse_ty cur in
      let acc = (name, ty) :: acc in
      if accept cur COMMA then more acc
      else begin
        expect cur RPAREN "')'";
        List.rev acc
      end
    in
    more []

let parse_args cur =
  expect cur LPAREN "'('";
  if accept cur RPAREN then []
  else
    let rec more acc =
      let name = ident cur in
      let acc = name :: acc in
      if accept cur COMMA then more acc
      else begin
        expect cur RPAREN "')'";
        List.rev acc
      end
    in
    more []

let unknown_category category ~line ~col =
  raise (Parse_error (Fmt.str "unknown resource category R.%s (want layout or id)" category, { line; col }))

(* [R.category.name] / [R.category.?], the [R] already consumed; an
   unknown category is reported at the [R], at [line]:[col]. *)
let parse_resource cur x ~line ~col =
  expect cur DOT "'.'";
  let category = ident cur in
  expect cur DOT "'.'";
  (* [R.layout.?] / [R.id.?]: a resource id the analysis cannot
     resolve statically (reflection, computed names). *)
  if accept cur QUESTION then
    match category with
    | "layout" -> Ast.Read_layout_top x
    | "id" -> Ast.Read_view_top x
    | other -> unknown_category other ~line ~col
  else
    let name = ident cur in
    match category with
    | "layout" -> Ast.Read_layout_id (x, name)
    | "id" -> Ast.Read_view_id (x, name)
    | other -> unknown_category other ~line ~col

(* Right-hand sides of [x = rhs;].  [x] has already been consumed. *)
let parse_rhs cur x =
  match token cur with
  | KW_NEW ->
      advance cur;
      let cls = ident cur in
      expect cur LPAREN "'('";
      expect cur RPAREN "')'";
      Ast.New (x, cls)
  | KW_NULL ->
      advance cur;
      Ast.Const_null x
  | INT n ->
      advance cur;
      Ast.Const_int (x, n)
  | KW_R ->
      let line = line cur and col = col cur in
      advance cur;
      parse_resource cur x ~line ~col
  | LPAREN ->
      advance cur;
      let cls = ident cur in
      expect cur RPAREN "')'";
      let y = ident cur in
      Ast.Cast (x, cls, y)
  | IDENT y ->
      advance cur;
      if accept cur DOT then
        let member = ident cur in
        match token cur with
        | LPAREN ->
            let args = parse_args cur in
            Ast.Invoke (Some x, y, member, args)
        | _ -> Ast.Read_field (x, y, member)
      else Ast.Copy (x, y)
  | _ -> unexpected cur "expected an expression"

let parse_stmt cur =
  match token cur with
  | KW_RETURN ->
      advance cur;
      if accept cur SEMI then Ast.Return None
      else
        let x = ident cur in
        expect cur SEMI "';'";
        Ast.Return (Some x)
  | IDENT x -> (
      advance cur;
      match token cur with
      | EQUALS ->
          advance cur;
          let stmt = parse_rhs cur x in
          expect cur SEMI "';'";
          stmt
      | DOT -> (
          advance cur;
          let member = ident cur in
          match token cur with
          | LPAREN ->
              let args = parse_args cur in
              expect cur SEMI "';'";
              Ast.Invoke (None, x, member, args)
          | EQUALS ->
              advance cur;
              let y = ident cur in
              expect cur SEMI "';'";
              Ast.Write_field (x, member, y)
          | _ -> fail cur "expected '(' (call) or '=' (field write) after member access")
      | _ -> fail cur "expected '=' or '.' after identifier")
  | _ -> unexpected cur "expected a statement"

let parse_method cur =
  let name = ident cur in
  let params = parse_params cur in
  let ret = parse_ret_ty cur in
  expect cur LBRACE "'{'";
  let locals = ref [] in
  let body = ref [] in
  let rec members () =
    match token cur with
    | RBRACE -> advance cur
    | KW_VAR ->
        advance cur;
        let v = ident cur in
        expect cur COLON "':'";
        let ty = parse_ty cur in
        expect cur SEMI "';'";
        locals := (v, ty) :: !locals;
        members ()
    | EOF -> fail cur "unterminated method body"
    | _ ->
        body := parse_stmt cur :: !body;
        members ()
  in
  members ();
  {
    Ast.m_name = name;
    m_params = params;
    m_ret = ret;
    m_locals = List.rev !locals;
    m_body = List.rev !body;
  }

let parse_class cur kind =
  let name = ident cur in
  let super = if accept cur KW_EXTENDS then Some (ident cur) else None in
  let interfaces =
    if accept cur KW_IMPLEMENTS then
      let rec more acc =
        let i = ident cur in
        if accept cur COMMA then more (i :: acc) else List.rev (i :: acc)
      in
      more []
    else []
  in
  expect cur LBRACE "'{'";
  let fields = ref [] in
  let methods = ref [] in
  let rec members () =
    match token cur with
    | RBRACE -> advance cur
    | KW_FIELD ->
        advance cur;
        let f = ident cur in
        expect cur COLON "':'";
        let ty = parse_ty cur in
        expect cur SEMI "';'";
        fields := (f, ty) :: !fields;
        members ()
    | KW_METHOD ->
        advance cur;
        methods := parse_method cur :: !methods;
        members ()
    | EOF -> fail cur "unterminated class body"
    | _ -> unexpected cur "expected 'field', 'method' or '}'"
  in
  members ();
  {
    Ast.c_name = name;
    c_kind = kind;
    c_super = super;
    c_interfaces = interfaces;
    c_fields = List.rev !fields;
    c_methods = List.rev !methods;
  }

let parse_classes cur =
  let rec loop acc =
    match token cur with
    | EOF -> List.rev acc
    | KW_CLASS ->
        advance cur;
        loop (parse_class cur `Class :: acc)
    | KW_INTERFACE ->
        advance cur;
        loop (parse_class cur `Interface :: acc)
    | _ -> unexpected cur "expected 'class' or 'interface'"
  in
  { Ast.p_classes = loop [] }

(* A lexical error anywhere in the source wins over a syntax error, as
   if the whole source had been lexed before parsing: on a syntax error
   the rest of the source is still lexed. *)
let parse_program src =
  let cur = Lexer.cursor src in
  match parse_classes cur with
  | program -> program
  | exception (Parse_error _ as e) ->
      Lexer.drain cur;
      raise e

let parse_program_result src =
  match parse_program src with
  | program -> Ok program
  | exception Parse_error (message, pos) ->
      Error (Fmt.str "parse error at %d:%d: %s" pos.line pos.col message)
  | exception Lexer.Lex_error (message, pos) ->
      Error (Fmt.str "lexical error at %d:%d: %s" pos.line pos.col message)
