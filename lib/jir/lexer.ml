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
  | EOF

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
  | EOF -> Fmt.string ppf "end of input"

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* Line and column come from offsets: a column per byte, a new line
   after each ['\n'].  [line] / [line_start] follow [off]; the [tok_]
   fields hold the current token's start.  At end of input the [tok_]
   fields keep the last real token's start, so errors there point at
   it (or at 1:1 in an empty source). *)
type cursor = {
  src : string;
  mutable off : int;  (** first byte not yet lexed *)
  mutable line : int;
  mutable line_start : int;  (** offset of the first byte of [line] *)
  mutable tok : token;
  mutable tok_start : int;
  mutable tok_line : int;
  mutable tok_line_start : int;
}

let pos_at ~line ~line_start start = { line; col = start - line_start + 1 }

let lex_error cur message start =
  raise (Lex_error (message, pos_at ~line:cur.line ~line_start:cur.line_start start))

(* Offset of the ["*/"] closing a block comment whose body starts at
   [i], counting the newlines it crosses; [-1] if there is none. *)
let rec comment_close cur i =
  let src = cur.src in
  if i >= String.length src then -1
  else
    match String.unsafe_get src i with
    | '*' when i + 1 < String.length src && String.unsafe_get src (i + 1) = '/' -> i
    | '\n' ->
        cur.line <- cur.line + 1;
        cur.line_start <- i + 1;
        comment_close cur (i + 1)
    | _ -> comment_close cur (i + 1)

let rec span_while pred src i =
  if i < String.length src && pred (String.unsafe_get src i) then span_while pred src (i + 1) else i

(* Whitespace, [// ...] to end of line and [/* ... */] (non-nesting). *)
let rec skip_trivia cur =
  let src = cur.src in
  let n = String.length src in
  let i = cur.off in
  if i < n then
    match String.unsafe_get src i with
    | ' ' | '\t' | '\r' ->
        cur.off <- i + 1;
        skip_trivia cur
    | '\n' ->
        cur.off <- i + 1;
        cur.line <- cur.line + 1;
        cur.line_start <- i + 1;
        skip_trivia cur
    | '/' when i + 1 < n && String.unsafe_get src (i + 1) = '/' ->
        cur.off <- span_while (fun c -> c <> '\n') src (i + 2);
        skip_trivia cur
    | '/' when i + 1 < n && String.unsafe_get src (i + 1) = '*' ->
        let line = cur.line and line_start = cur.line_start in
        let close = comment_close cur (i + 2) in
        if close < 0 then
          raise (Lex_error ("unterminated comment", pos_at ~line ~line_start i));
        cur.off <- close + 2;
        skip_trivia cur
    | _ -> ()

let rec same_from src start word i =
  i = String.length word
  || (String.unsafe_get src (start + i) = String.unsafe_get word i && same_from src start word (i + 1))

(* Whether [src.[start .. start + len - 1]] is [word], without copying. *)
let is_word src start len word = String.length word = len && same_from src start word 0

let word_token src start len =
  match String.unsafe_get src start with
  | 'c' when is_word src start len "class" -> KW_CLASS
  | 'e' when is_word src start len "extends" -> KW_EXTENDS
  | 'f' when is_word src start len "field" -> KW_FIELD
  | 'i' when is_word src start len "int" -> KW_INT
  | 'i' when is_word src start len "interface" -> KW_INTERFACE
  | 'i' when is_word src start len "implements" -> KW_IMPLEMENTS
  | 'm' when is_word src start len "method" -> KW_METHOD
  | 'n' when is_word src start len "new" -> KW_NEW
  | 'n' when is_word src start len "null" -> KW_NULL
  | 'r' when is_word src start len "return" -> KW_RETURN
  | 'v' when is_word src start len "var" -> KW_VAR
  | 'v' when is_word src start len "void" -> KW_VOID
  | 'R' when len = 1 -> KW_R
  | _ -> IDENT (String.sub src start len)

let number_token cur start =
  let src = cur.src in
  let stop =
    (* allow 0x prefix for resource-style ids *)
    if
      String.unsafe_get src start = '0'
      && start + 1 < String.length src
      && (String.unsafe_get src (start + 1) = 'x' || String.unsafe_get src (start + 1) = 'X')
    then span_while is_hex_digit src (start + 2)
    else span_while is_digit src start
  in
  let text = String.sub src start (stop - start) in
  match int_of_string_opt text with
  | Some n ->
      cur.off <- stop;
      INT n
  | None -> lex_error cur (Printf.sprintf "bad integer literal %S" text) start

let punct cur token =
  cur.off <- cur.off + 1;
  token

let advance cur =
  skip_trivia cur;
  let src = cur.src in
  let start = cur.off in
  if start >= String.length src then cur.tok <- EOF
  else begin
    cur.tok <-
      (match String.unsafe_get src start with
      | '{' -> punct cur LBRACE
      | '}' -> punct cur RBRACE
      | '(' -> punct cur LPAREN
      | ')' -> punct cur RPAREN
      | ';' -> punct cur SEMI
      | ':' -> punct cur COLON
      | ',' -> punct cur COMMA
      | '.' -> punct cur DOT
      | '=' -> punct cur EQUALS
      | '?' -> punct cur QUESTION
      | c when is_digit c -> number_token cur start
      | c when is_ident_start c ->
          let stop = span_while is_ident_char src (start + 1) in
          cur.off <- stop;
          word_token src start (stop - start)
      | c -> lex_error cur (Printf.sprintf "unexpected character %C" c) start);
    cur.tok_start <- start;
    cur.tok_line <- cur.line;
    cur.tok_line_start <- cur.line_start
  end

let cursor src =
  let cur =
    { src; off = 0; line = 1; line_start = 0; tok = EOF; tok_start = 0; tok_line = 1; tok_line_start = 0 }
  in
  advance cur;
  cur

let token cur = cur.tok

let line cur = cur.tok_line

let col cur = cur.tok_start - cur.tok_line_start + 1

let pos cur = { line = line cur; col = col cur }

let rec drain cur =
  match cur.tok with
  | EOF -> ()
  | _ ->
      advance cur;
      drain cur

let tokenize src =
  let cur = cursor src in
  let rec collect acc =
    match cur.tok with
    | EOF -> List.rev acc
    | token ->
        let l = { token; pos = pos cur } in
        advance cur;
        collect (l :: acc)
  in
  collect []
