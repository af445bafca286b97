(** Combinators for constructing ALite programs programmatically —
    used by examples and the synthetic corpus generator, avoiding the
    text frontend when assembling large programs. *)

val tclass : string -> Ast.ty

(** Statement constructors (thin wrappers with readable names). *)

val new_ : string -> string -> Ast.stmt
(** [new_ x "C"] is [x = new C()]. *)

val copy : string -> string -> Ast.stmt

val read : string -> string -> string -> Ast.stmt
(** [read x y "f"] is [x = y.f]. *)

val write : string -> string -> string -> Ast.stmt
(** [write x "f" y] is [x.f = y]. *)

val layout_id : string -> string -> Ast.stmt
(** [layout_id x "main"] is [x = R.layout.main]. *)

val view_id : string -> string -> Ast.stmt
(** [view_id x "button"] is [x = R.id.button]. *)

val layout_top : string -> Ast.stmt
(** [layout_top x] is [x = R.layout.?] — a layout id the analysis
    cannot resolve statically. *)

val view_id_top : string -> Ast.stmt
(** [view_id_top x] is [x = R.id.?]. *)

val const : string -> int -> Ast.stmt

val null : string -> Ast.stmt

val cast : string -> string -> string -> Ast.stmt
(** [cast x "C" y] is [x = (C) y]. *)

val call : ?into:string -> string -> string -> string list -> Ast.stmt
(** [call ~into:z recv m args] is [z = recv.m(args)]; without [~into]
    the result is discarded. *)

val ret : ?value:string -> unit -> Ast.stmt

val meth :
  ?params:(string * Ast.ty) list ->
  ?ret:Ast.ty ->
  ?locals:(string * Ast.ty) list ->
  string ->
  Ast.stmt list ->
  Ast.meth

val cls :
  ?kind:[ `Class | `Interface ] ->
  ?extends:string ->
  ?implements:string list ->
  ?fields:(string * Ast.ty) list ->
  ?methods:Ast.meth list ->
  string ->
  Ast.cls

val program : Ast.cls list -> Ast.program
