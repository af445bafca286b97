(** Minimal JSON tree, printer, and parser.

    No third-party JSON library is vendored in this sealed environment;
    the analysis exports its solution as JSON for downstream tools
    (Section 6 clients: testing, security analyses), and the test suite
    round-trips through this parser. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Strings are emitted as UTF-8 with control characters escaped;
    non-BMP code points (4-byte UTF-8 sequences) are escaped as UTF-16
    surrogate pairs ([\uD83D\uDE00] for U+1F600), since a single
    [\uXXXX] only reaches the BMP. *)

val pp : t Fmt.t
(** Pretty (indented) form. *)

val max_depth : int
(** How deeply {!of_string} lets arrays and objects nest (512). *)

val of_string : string -> (t, string) result
(** Parses the full JSON value grammar (numbers are read as [Int] when
    they are exact integers, [Float] otherwise).  Arrays and objects
    nested deeper than {!max_depth} are an [Error] at the offset of
    the first bracket past it, so one hostile input cannot hold the
    parser in a deep recursion.  [\uXXXX] escapes
    cover the BMP directly; a high/low surrogate pair of escapes is
    combined into the astral code point it denotes (unpaired
    surrogates are tolerated and byte-encoded individually). *)

val equal : t -> t -> bool

val member : string -> t -> t option
(** Field lookup on [Obj]. *)

val to_list : t -> t list option
