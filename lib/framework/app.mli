(** An application under analysis: ALite code plus layout resources,
    with a hierarchy built against the platform model.  This is the
    input type of both the static analysis and the dynamic
    semantics. *)

type t = private {
  name : string;
  program : Jir.Ast.program;
  package : Layouts.Package.t;
  hierarchy : Jir.Hierarchy.t;
}

val make : name:string -> Jir.Ast.program -> Layouts.Package.t -> t
(** @raise Jir.Hierarchy.Hierarchy_error on duplicate/cyclic classes. *)

val with_program : t -> Jir.Ast.program -> t
(** [t] with another program and the same name and package.  The
    hierarchy is reused ({!Jir.Hierarchy.with_program}) when no class
    or method key changed, and rebuilt otherwise.
    @raise Jir.Hierarchy.Hierarchy_error as {!make}. *)

val of_source : name:string -> code:string -> layouts:(string * string) list -> (t, string) result
(** Build an app from ALite source text and named XML layout texts. *)

val activity_classes : t -> Jir.Ast.cls list
(** Application classes that are (transitive) subclasses of
    [Activity]. *)

val listener_classes : t -> Jir.Ast.cls list

val view_classes : t -> Jir.Ast.cls list
(** Application-defined view classes (like Figure 1's
    [TerminalView]). *)

val typing_env :
  ?cha_targets:(recv_ty:string option -> string -> int -> (string * Jir.Ast.meth) list) ->
  t ->
  owner:string ->
  Jir.Ast.meth ->
  Jir.Typing.env
(** Typing with platform API return types plugged in; [?cha_targets]
    as in {!Jir.Typing.infer}. *)

val diagnostics : t -> Jir.Wellformed.diagnostic list
