(** Recursive-descent parser for ALite source text.

    Concrete syntax (see also {!Pp} which prints this syntax back):

    {v
    class ConsoleActivity extends Activity {
      field flip: ViewFlipper;
      method findViewById(a: int): View {
        var b: ViewFlipper;
        b = this.flip;
        c = b.getCurrentView();
        d = c.findViewById(a);
        return d;
      }
    }
    v}

    Local [var] declarations are optional; undeclared locals get their
    types inferred by {!Typing}.  Resource reads are written
    [x = R.layout.name;] and [x = R.id.name;].

    {b Cost contract.}  The parser pulls one token at a time from a
    {!Lexer.cursor} and decides with one token of lookahead: one pass,
    no token list or array, no polymorphic compare.  Apart from the
    lexer's identifier strings it allocates only the AST itself (and the
    error it raises).  On the rendered corpus that is about 1.1 minor
    words per source byte; [test/test_alite_oracle.ml] fails above 2.

    {b Errors.}  A lexical error anywhere in the source wins over a
    syntax error, exactly as if the whole source were lexed first: after
    a syntax error the rest of the source is still lexed.  An error at
    end of input is reported at the last token. *)

exception Parse_error of string * Lexer.pos

val parse_program : string -> Ast.program
(** @raise Parse_error on syntax errors, [Lexer.Lex_error] on lexical
    errors. *)

val parse_program_result : string -> (Ast.program, string) result
(** Like {!parse_program} but with errors rendered to a message
    including the source position. *)
