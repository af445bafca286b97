(** Best-effort static typing of ALite method variables.

    Declared parameter/local types are taken as-is; undeclared locals
    get a type inferred from their definition sites, joined to the
    least common superclass when definitions disagree.  The result
    seeds CHA call resolution; it is an over-approximation aid, never
    trusted for soundness (an unknown type simply widens the CHA
    answer to all methods with the key). *)

type env = (string, Ast.ty) Hashtbl.t

val least_common_superclass : Hierarchy.t -> string -> string -> string option
(** Most specific common supertype along superclass chains; [None] when
    the chains never meet (e.g. unrelated interfaces). *)

val infer :
  ?cha_targets:(recv_ty:string option -> string -> int -> (string * Ast.meth) list) ->
  hierarchy:Hierarchy.t ->
  external_return:(recv_ty:string option -> string -> int -> Ast.ty option) ->
  owner:string ->
  Ast.meth ->
  env
(** [infer ~hierarchy ~external_return ~owner m] assigns a type to every
    variable of [m] it can.  [external_return ~recv_ty name arity] is
    consulted for calls that resolve to no application method —
    typically Android platform APIs whose return types the framework
    model knows. [owner] is the class defining [m] (gives [this] its
    type).  The result is the fixpoint: inference re-walks the body
    until no type changes, however long the def-use chains.
    [?cha_targets ~recv_ty name arity] resolves a call's application
    targets; it defaults to {!Hierarchy.cha_targets} on [hierarchy],
    and a caller typing many methods of one app passes a memo of that
    same function so each call signature is resolved once. *)

val ty_of : env -> string -> Ast.ty option

val class_of : env -> string -> string option
(** The class name when the variable has a reference type. *)
