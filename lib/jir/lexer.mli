(** Hand-written pull lexer for ALite source text.

    Menhir/ocamllex are deliberately not used: the token language is tiny
    and a hand-rolled lexer keeps the frontend dependency-free.

    The parser pulls tokens one at a time from a {!cursor}; no token list
    or array is ever built.  Comments are [// ...] to end of line and
    [/* ... */] (non-nesting).

    {b Cost contract.}  Lexing is one pass over the source bytes.  It
    allocates nothing per character, per keyword or per punctuation
    token: the only allocations are the [IDENT] and [INT] payloads of
    the tokens that carry one (the identifier string, a two-word
    constructor block).  A {!pos} is built only when an error is raised
    or when {!pos} is called. *)

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
  | KW_R  (** the resource class [R] *)
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | SEMI
  | COLON
  | COMMA
  | DOT
  | EQUALS
  | QUESTION  (** [R.layout.?] / [R.id.?]: statically unresolvable resource *)
  | EOF  (** the cursor is past the last token; {!tokenize} never returns it *)

type pos = { line : int; col : int }
(** 1-based; a column per byte, and a new line after each ['\n']. *)

type located = { token : token; pos : pos }

exception Lex_error of string * pos

val pp_token : token Fmt.t

(** {1 Pull cursor} *)

type cursor
(** A position in a source string plus the token that starts there. *)

val cursor : string -> cursor
(** A cursor on the first token of the source ([EOF] if it has none).
    @raise Lex_error as {!advance}. *)

val token : cursor -> token
(** The current token. *)

val advance : cursor -> unit
(** Move to the next token; at [EOF] it stays at [EOF].
    @raise Lex_error on an illegal character, an unterminated comment
    (reported where the comment opens) or an integer literal that does
    not fit. *)

val pos : cursor -> pos
(** Where the current token starts.  At [EOF] this is where the last
    real token starts, or 1:1 in a source with no tokens.  Allocates. *)

val line : cursor -> int
(** [(pos cur).line] without allocating. *)

val col : cursor -> int
(** [(pos cur).col] without allocating. *)

val drain : cursor -> unit
(** Lex the rest of the source, raising the first lexical error in it. *)

val tokenize : string -> located list
(** Every token of a source string, in order, [EOF] excluded.  A
    convenience for tests; the parser never builds this list.
    @raise Lex_error as {!advance}. *)
