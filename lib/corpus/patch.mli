(** Patch-style edits over corpus apps — the shared vocabulary of the
    incremental test-suite, the benchmarks, and the CLI's patched-app
    verification.

    A patch is a JSON list of edits:
    {v
      [{"edit": "rename_view_id", "from": "btn_old", "to": "btn_new"},
       {"edit": "remove_stmt", "cls": "C", "meth": "m", "arity": 0, "index": 3},
       {"edit": "add_stmt", "cls": "C", "meth": "m", "arity": 0,
        "stmt": {"copy": ["x", "y"]}},
       {"edit": "add_method", "cls": "C", "name": "onClick",
        "params": ["v"], "body": [{"return": null}]}]
    v}

    Statements use a one-field-object encoding mirroring
    {!Jir.Ast.stmt}; see the implementation header for the full list. *)

type edit =
  | Rename_view_id of { from_ : string; to_ : string }
      (** Retarget every [x = R.id.from_] read to another id. *)
  | Remove_stmt of { cls : string; meth : string; arity : int; index : int }
      (** Drop the statement at [index]; an index outside the body is
          an [Error] naming the method, the index and the body's
          length.  Later statements of the same method shift index, so
          their sites are treated as removed + added by the diff —
          sound, at some extra invalidation. *)
  | Add_stmt of { cls : string; meth : string; arity : int; stmt : Jir.Ast.stmt }
      (** Append a statement to the method body. *)
  | Add_method of { cls : string; name : string; params : string list; body : Jir.Ast.stmt list }

type t = edit list

val of_json : Util.Json.t -> (t, string) result

val of_string : string -> (t, string) result

val load : string -> (t, string) result
(** Read and parse a patch file. *)

val apply : Framework.App.t -> t -> (Framework.App.t, string) result
(** Apply the edits in order and rebuild the app
    ({!Framework.App.with_program}: the hierarchy is reused unless a
    class or method key changed).  The layout package is shared
    physically with the input, preserving the incremental warm guard's
    pointer-equality fast path. *)
