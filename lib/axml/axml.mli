(** A minimal XML reader/writer sufficient for Android layout files.

    This replaces the Android SDK's resource tooling (see DESIGN.md,
    substitutions): layout definitions are ordinary XML documents whose
    elements are view classes and whose [android:id] attributes carry
    view ids.  Text content is not meaningful in layouts and is
    ignored; comments, XML declarations, and the usual five character
    entities are handled. *)

type t = { tag : string; attrs : (string * string) list; children : t list }

val element : ?attrs:(string * string) list -> ?children:t list -> string -> t

val attr : t -> string -> string option

val max_depth : int
(** The deepest element nesting {!parse} accepts (256; the root is at
    depth 1). *)

val parse : string -> (t, string) result
(** Parse a document with a single root element.  Errors carry a
    line:column position.  An element nested deeper than {!max_depth}
    is an error at its opening ['<'], so hostile input costs time
    linear in its length. *)

val parse_exn : string -> t
(** @raise Failure with the rendered error. *)

val pp : t Fmt.t
(** Indented rendering, reparsable by {!parse}. *)

val to_string : t -> string

val equal : t -> t -> bool
