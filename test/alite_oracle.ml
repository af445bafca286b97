(* Reference ALite front end for differential tests: the whole-file
   tokenizer and the token-array parser that the pull cursor in
   [Jir.Lexer] / [Jir.Parser] replaced, kept unchanged.  Both lex the
   entire source before parsing, so a lexical error anywhere wins over
   a syntax error, and end-of-input errors point at the last token.
   Nothing outside the tests uses it. *)

open Jir

module Lexer = struct
  type token =
    | IDENT of string
    | INT of int
    | KW_CLASS
    | KW_INTERFACE
    | KW_EXTENDS
    | KW_IMPLEMENTS
    | KW_FIELD
    | KW_METHOD
    | KW_VAR
    | KW_NEW
    | KW_RETURN
    | KW_NULL
    | KW_INT
    | KW_VOID
    | KW_R
    | LBRACE
    | RBRACE
    | LPAREN
    | RPAREN
    | SEMI
    | COLON
    | COMMA
    | DOT
    | EQUALS
    | QUESTION

  type pos = { line : int; col : int }

  type located = { token : token; pos : pos }

  exception Lex_error of string * pos

  let pp_token ppf = function
    | IDENT s -> Fmt.pf ppf "identifier %S" s
    | INT n -> Fmt.pf ppf "integer %d" n
    | KW_CLASS -> Fmt.string ppf "'class'"
    | KW_INTERFACE -> Fmt.string ppf "'interface'"
    | KW_EXTENDS -> Fmt.string ppf "'extends'"
    | KW_IMPLEMENTS -> Fmt.string ppf "'implements'"
    | KW_FIELD -> Fmt.string ppf "'field'"
    | KW_METHOD -> Fmt.string ppf "'method'"
    | KW_VAR -> Fmt.string ppf "'var'"
    | KW_NEW -> Fmt.string ppf "'new'"
    | KW_RETURN -> Fmt.string ppf "'return'"
    | KW_NULL -> Fmt.string ppf "'null'"
    | KW_INT -> Fmt.string ppf "'int'"
    | KW_VOID -> Fmt.string ppf "'void'"
    | KW_R -> Fmt.string ppf "'R'"
    | LBRACE -> Fmt.string ppf "'{'"
    | RBRACE -> Fmt.string ppf "'}'"
    | LPAREN -> Fmt.string ppf "'('"
    | RPAREN -> Fmt.string ppf "')'"
    | SEMI -> Fmt.string ppf "';'"
    | COLON -> Fmt.string ppf "':'"
    | COMMA -> Fmt.string ppf "','"
    | DOT -> Fmt.string ppf "'.'"
    | EQUALS -> Fmt.string ppf "'='"
    | QUESTION -> Fmt.string ppf "'?'"

  let keyword_of_string = function
    | "class" -> Some KW_CLASS
    | "interface" -> Some KW_INTERFACE
    | "extends" -> Some KW_EXTENDS
    | "implements" -> Some KW_IMPLEMENTS
    | "field" -> Some KW_FIELD
    | "method" -> Some KW_METHOD
    | "var" -> Some KW_VAR
    | "new" -> Some KW_NEW
    | "return" -> Some KW_RETURN
    | "null" -> Some KW_NULL
    | "int" -> Some KW_INT
    | "void" -> Some KW_VOID
    | "R" -> Some KW_R
    | _ -> None

  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

  let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

  let is_digit c = c >= '0' && c <= '9'

  type cursor = { src : string; mutable off : int; mutable line : int; mutable col : int }

  let peek cur = if cur.off < String.length cur.src then Some cur.src.[cur.off] else None

  let peek2 cur = if cur.off + 1 < String.length cur.src then Some cur.src.[cur.off + 1] else None

  let advance cur =
    (match peek cur with
    | Some '\n' ->
        cur.line <- cur.line + 1;
        cur.col <- 1
    | Some _ -> cur.col <- cur.col + 1
    | None -> ());
    cur.off <- cur.off + 1

  let position cur = { line = cur.line; col = cur.col }

  let rec skip_trivia cur =
    match peek cur with
    | Some (' ' | '\t' | '\r' | '\n') ->
        advance cur;
        skip_trivia cur
    | Some '/' -> (
        match peek2 cur with
        | Some '/' ->
            let rec to_eol () =
              match peek cur with
              | Some '\n' | None -> ()
              | Some _ ->
                  advance cur;
                  to_eol ()
            in
            to_eol ();
            skip_trivia cur
        | Some '*' ->
            let start = position cur in
            advance cur;
            advance cur;
            let rec to_close () =
              match (peek cur, peek2 cur) with
              | Some '*', Some '/' ->
                  advance cur;
                  advance cur
              | Some _, _ ->
                  advance cur;
                  to_close ()
              | None, _ -> raise (Lex_error ("unterminated comment", start))
            in
            to_close ();
            skip_trivia cur
        | _ -> ())
    | _ -> ()

  let lex_word cur =
    let start = cur.off in
    while (match peek cur with Some c -> is_ident_char c | None -> false) do
      advance cur
    done;
    String.sub cur.src start (cur.off - start)

  let lex_number cur pos =
    let start = cur.off in
    (* allow 0x prefix for resource-style ids *)
    if peek cur = Some '0' && (peek2 cur = Some 'x' || peek2 cur = Some 'X') then begin
      advance cur;
      advance cur;
      while
        match peek cur with
        | Some c -> is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
        | None -> false
      do
        advance cur
      done
    end
    else
      while (match peek cur with Some c -> is_digit c | None -> false) do
        advance cur
      done;
    let text = String.sub cur.src start (cur.off - start) in
    match int_of_string_opt text with
    | Some n -> n
    | None -> raise (Lex_error (Printf.sprintf "bad integer literal %S" text, pos))

  let tokenize src =
    let cur = { src; off = 0; line = 1; col = 1 } in
    let out = ref [] in
    let emit token pos = out := { token; pos } :: !out in
    let rec loop () =
      skip_trivia cur;
      match peek cur with
      | None -> ()
      | Some c ->
          let pos = position cur in
          (match c with
          | '{' ->
              advance cur;
              emit LBRACE pos
          | '}' ->
              advance cur;
              emit RBRACE pos
          | '(' ->
              advance cur;
              emit LPAREN pos
          | ')' ->
              advance cur;
              emit RPAREN pos
          | ';' ->
              advance cur;
              emit SEMI pos
          | ':' ->
              advance cur;
              emit COLON pos
          | ',' ->
              advance cur;
              emit COMMA pos
          | '.' ->
              advance cur;
              emit DOT pos
          | '=' ->
              advance cur;
              emit EQUALS pos
          | '?' ->
              advance cur;
              emit QUESTION pos
          | c when is_digit c -> emit (INT (lex_number cur pos)) pos
          | c when is_ident_start c ->
              let word = lex_word cur in
              let token =
                match keyword_of_string word with Some kw -> kw | None -> IDENT word
              in
              emit token pos
          | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, pos)));
          loop ()
    in
    loop ();
    List.rev !out
end

module Parser = struct
  open Lexer

  exception Parse_error of string * Lexer.pos

  type state = { tokens : located array; mutable index : int }

  let eof_pos state =
    if Array.length state.tokens = 0 then { line = 1; col = 1 }
    else (state.tokens.(Array.length state.tokens - 1)).pos

  let peek state = if state.index < Array.length state.tokens then Some state.tokens.(state.index) else None

  let fail state message =
    let pos = match peek state with Some l -> l.pos | None -> eof_pos state in
    raise (Parse_error (message, pos))

  let next state =
    match peek state with
    | Some l ->
        state.index <- state.index + 1;
        l
    | None -> fail state "unexpected end of input"

  let expect state token what =
    let l = next state in
    if l.token <> token then
      raise (Parse_error (Fmt.str "expected %s, found %a" what pp_token l.token, l.pos))

  let accept state token =
    match peek state with
    | Some l when l.token = token ->
        state.index <- state.index + 1;
        true
    | _ -> false

  let ident state =
    let l = next state in
    match l.token with
    | IDENT s -> s
    | t -> raise (Parse_error (Fmt.str "expected identifier, found %a" pp_token t, l.pos))

  let parse_ty state =
    let l = next state in
    match l.token with
    | KW_INT -> Ast.Tint
    | KW_VOID -> raise (Parse_error ("'void' is only allowed as a return type", l.pos))
    | IDENT s -> Ast.Tclass s
    | t -> raise (Parse_error (Fmt.str "expected a type, found %a" pp_token t, l.pos))

  let parse_ret_ty state =
    if accept state COLON then
      let l = next state in
      match l.token with
      | KW_VOID -> None
      | KW_INT -> Some Ast.Tint
      | IDENT s -> Some (Ast.Tclass s)
      | t -> raise (Parse_error (Fmt.str "expected a return type, found %a" pp_token t, l.pos))
    else None

  let parse_params state =
    expect state LPAREN "'('";
    if accept state RPAREN then []
    else
      let rec more acc =
        let name = ident state in
        expect state COLON "':'";
        let ty = parse_ty state in
        let acc = (name, ty) :: acc in
        if accept state COMMA then more acc
        else begin
          expect state RPAREN "')'";
          List.rev acc
        end
      in
      more []

  let parse_args state =
    expect state LPAREN "'('";
    if accept state RPAREN then []
    else
      let rec more acc =
        let name = ident state in
        let acc = name :: acc in
        if accept state COMMA then more acc
        else begin
          expect state RPAREN "')'";
          List.rev acc
        end
      in
      more []

  (* Right-hand sides of [x = rhs;].  [x] has already been consumed. *)
  let parse_rhs state x =
    let l = next state in
    match l.token with
    | KW_NEW ->
        let cls = ident state in
        expect state LPAREN "'('";
        expect state RPAREN "')'";
        Ast.New (x, cls)
    | KW_NULL -> Ast.Const_null x
    | INT n -> Ast.Const_int (x, n)
    | KW_R -> (
        expect state DOT "'.'";
        let category = ident state in
        expect state DOT "'.'";
        (* [R.layout.?] / [R.id.?]: a resource id the analysis cannot
           resolve statically (reflection, computed names). *)
        if accept state QUESTION then
          match category with
          | "layout" -> Ast.Read_layout_top x
          | "id" -> Ast.Read_view_top x
          | other ->
              raise
                (Parse_error (Fmt.str "unknown resource category R.%s (want layout or id)" other, l.pos))
        else
          let name = ident state in
          match category with
          | "layout" -> Ast.Read_layout_id (x, name)
          | "id" -> Ast.Read_view_id (x, name)
          | other ->
              raise (Parse_error (Fmt.str "unknown resource category R.%s (want layout or id)" other, l.pos)))
    | LPAREN ->
        let cls = ident state in
        expect state RPAREN "')'";
        let y = ident state in
        Ast.Cast (x, cls, y)
    | IDENT y -> (
        match peek state with
        | Some { token = DOT; _ } -> (
            state.index <- state.index + 1;
            let member = ident state in
            match peek state with
            | Some { token = LPAREN; _ } ->
                let args = parse_args state in
                Ast.Invoke (Some x, y, member, args)
            | _ -> Ast.Read_field (x, y, member))
        | _ -> Ast.Copy (x, y))
    | t -> raise (Parse_error (Fmt.str "expected an expression, found %a" pp_token t, l.pos))

  let parse_stmt state =
    let l = next state in
    match l.token with
    | KW_RETURN ->
        if accept state SEMI then Ast.Return None
        else
          let x = ident state in
          expect state SEMI "';'";
          Ast.Return (Some x)
    | IDENT x -> (
        match peek state with
        | Some { token = EQUALS; _ } ->
            state.index <- state.index + 1;
            let stmt = parse_rhs state x in
            expect state SEMI "';'";
            stmt
        | Some { token = DOT; _ } -> (
            state.index <- state.index + 1;
            let member = ident state in
            match peek state with
            | Some { token = LPAREN; _ } ->
                let args = parse_args state in
                expect state SEMI "';'";
                Ast.Invoke (None, x, member, args)
            | Some { token = EQUALS; _ } ->
                state.index <- state.index + 1;
                let y = ident state in
                expect state SEMI "';'";
                Ast.Write_field (x, member, y)
            | _ -> fail state "expected '(' (call) or '=' (field write) after member access")
        | _ -> fail state "expected '=' or '.' after identifier")
    | t -> raise (Parse_error (Fmt.str "expected a statement, found %a" pp_token t, l.pos))

  let parse_method state =
    let name = ident state in
    let params = parse_params state in
    let ret = parse_ret_ty state in
    expect state LBRACE "'{'";
    let locals = ref [] in
    let body = ref [] in
    let rec members () =
      match peek state with
      | Some { token = RBRACE; _ } -> state.index <- state.index + 1
      | Some { token = KW_VAR; _ } ->
          state.index <- state.index + 1;
          let v = ident state in
          expect state COLON "':'";
          let ty = parse_ty state in
          expect state SEMI "';'";
          locals := (v, ty) :: !locals;
          members ()
      | Some _ ->
          body := parse_stmt state :: !body;
          members ()
      | None -> fail state "unterminated method body"
    in
    members ();
    {
      Ast.m_name = name;
      m_params = params;
      m_ret = ret;
      m_locals = List.rev !locals;
      m_body = List.rev !body;
    }

  let parse_class state kind =
    let name = ident state in
    let super = if accept state KW_EXTENDS then Some (ident state) else None in
    let interfaces =
      if accept state KW_IMPLEMENTS then
        let rec more acc =
          let i = ident state in
          if accept state COMMA then more (i :: acc) else List.rev (i :: acc)
        in
        more []
      else []
    in
    expect state LBRACE "'{'";
    let fields = ref [] in
    let methods = ref [] in
    let rec members () =
      match peek state with
      | Some { token = RBRACE; _ } -> state.index <- state.index + 1
      | Some { token = KW_FIELD; _ } ->
          state.index <- state.index + 1;
          let f = ident state in
          expect state COLON "':'";
          let ty = parse_ty state in
          expect state SEMI "';'";
          fields := (f, ty) :: !fields;
          members ()
      | Some { token = KW_METHOD; _ } ->
          state.index <- state.index + 1;
          methods := parse_method state :: !methods;
          members ()
      | Some l ->
          raise
            (Parse_error (Fmt.str "expected 'field', 'method' or '}', found %a" pp_token l.token, l.pos))
      | None -> fail state "unterminated class body"
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

  let parse_program src =
    let tokens = Array.of_list (Lexer.tokenize src) in
    let state = { tokens; index = 0 } in
    let classes = ref [] in
    let rec loop () =
      match peek state with
      | None -> ()
      | Some { token = KW_CLASS; _ } ->
          state.index <- state.index + 1;
          classes := parse_class state `Class :: !classes;
          loop ()
      | Some { token = KW_INTERFACE; _ } ->
          state.index <- state.index + 1;
          classes := parse_class state `Interface :: !classes;
          loop ()
      | Some l ->
          raise (Parse_error (Fmt.str "expected 'class' or 'interface', found %a" pp_token l.token, l.pos))
    in
    loop ();
    { Ast.p_classes = List.rev !classes }

  let parse_program_result src =
    match parse_program src with
    | program -> Ok program
    | exception Parse_error (message, pos) ->
        Error (Fmt.str "parse error at %d:%d: %s" pos.line pos.col message)
    | exception Lexer.Lex_error (message, pos) ->
        Error (Fmt.str "lexical error at %d:%d: %s" pos.line pos.col message)
end
