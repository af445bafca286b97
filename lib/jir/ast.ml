(** Abstract syntax of ALite.

    ALite is the abstracted Java-like language of Section 3 of the paper:
    classes with fields and methods, three-address statements, plus the
    Android-specific constant reads [x = R.layout.f] and [x = R.id.f].
    Platform classes have no bodies here; they are declared externally
    (see {!Hierarchy.decl}) exactly as the paper excludes platform method
    bodies from the analyzed program. *)

type ty =
  | Tint  (** layout/view ids are integers *)
  | Tclass of string  (** reference type, by class or interface name *)
[@@deriving show { with_path = false }, eq, ord]

type var = string [@@deriving show { with_path = false }, eq, ord]

(** Three-address statements.  Calls carry an optional left-hand side;
    [Invoke (Some z, x, m, args)] is [z = x.m(args)]. *)
type stmt =
  | New of var * string  (** [x = new C()] *)
  | Copy of var * var  (** [x = y] *)
  | Read_field of var * var * string  (** [x = y.f] *)
  | Write_field of var * string * var  (** [x.f = y] *)
  | Read_layout_id of var * string  (** [x = R.layout.f] *)
  | Read_view_id of var * string  (** [x = R.id.f] *)
  | Read_layout_top of var  (** [x = R.layout.?] — statically unknown layout id *)
  | Read_view_top of var  (** [x = R.id.?] — statically unknown view id *)
  | Const_int of var * int  (** [x = n] *)
  | Const_null of var  (** [x = null] *)
  | Cast of var * string * var  (** [x = (C) y] *)
  | Invoke of var option * var * string * var list
  | Return of var option
[@@deriving show { with_path = false }, eq, ord]

type meth = {
  m_name : string;
  m_params : (var * ty) list;
  m_ret : ty option;  (** [None] for void *)
  m_locals : (var * ty) list;  (** explicit local declarations (optional in source) *)
  m_body : stmt list;
}
[@@deriving show { with_path = false }, eq, ord]

type cls = {
  c_name : string;
  c_kind : [ `Class | `Interface ];
  c_super : string option;
  c_interfaces : string list;
  c_fields : (string * ty) list;
  c_methods : meth list;
}
[@@deriving show { with_path = false }, eq, ord]

type program = { p_classes : cls list } [@@deriving show { with_path = false }, eq, ord]

(** Key identifying a method: dispatch in ALite is by name and arity. *)
type meth_key = { mk_name : string; mk_arity : int }
[@@deriving show { with_path = false }, eq, ord]

let key_of_meth m = { mk_name = m.m_name; mk_arity = List.length m.m_params }

(** Variables appearing in a statement, defs first. *)
let stmt_vars = function
  | New (x, _)
  | Read_layout_id (x, _)
  | Read_view_id (x, _)
  | Read_layout_top x
  | Read_view_top x
  | Const_int (x, _)
  | Const_null x ->
      [ x ]
  | Copy (x, y) | Read_field (x, y, _) | Cast (x, _, y) -> [ x; y ]
  | Write_field (x, _, y) -> [ x; y ]
  | Invoke (lhs, recv, _, args) -> (match lhs with Some z -> [ z ] | None -> []) @ (recv :: args)
  | Return (Some x) -> [ x ]
  | Return None -> []

(** Variable defined by a statement, if any. *)
let stmt_def = function
  | New (x, _)
  | Copy (x, _)
  | Read_field (x, _, _)
  | Read_layout_id (x, _)
  | Read_view_id (x, _)
  | Read_layout_top x
  | Read_view_top x
  | Const_int (x, _)
  | Const_null x
  | Cast (x, _, _) ->
      Some x
  | Invoke (lhs, _, _, _) -> lhs
  | Write_field _ | Return _ -> None

let find_class program name = List.find_opt (fun c -> c.c_name = name) program.p_classes

(* Compares in place rather than through [key_of_meth], so a lookup
   allocates nothing. *)
let find_meth cls key =
  List.find_opt
    (fun m -> String.equal m.m_name key.mk_name && List.compare_length_with m.m_params key.mk_arity = 0)
    cls.c_methods

(** Whether two methods have one dispatch key (name and arity):
    [find_meth]'s key, compared in place too. *)
let same_meth_arity m m' = String.equal m.m_name m'.m_name && List.compare_lengths m.m_params m'.m_params = 0

(** What a class contributes to the hierarchy: its name, kind and
    supertypes (the class fingerprint's key). *)
let same_class_key c c' =
  String.equal c.c_name c'.c_name && c.c_kind = c'.c_kind && c.c_super = c'.c_super
  && List.equal String.equal c.c_interfaces c'.c_interfaces

(** A method's name and parameter names (the method fingerprint's
    key; the arity follows). *)
let same_meth_key m m' =
  String.equal m.m_name m'.m_name && List.equal (fun (p, _) (p', _) -> String.equal p p') m.m_params m'.m_params

(** The special receiver variable of instance methods. *)
let this_var = "this"

(** All variables mentioned anywhere in a method: [this], parameters,
    declared locals, and every occurrence in the body. *)
let meth_vars m =
  let tbl = Hashtbl.create 16 in
  let out = ref [] in
  let add v =
    if not (Hashtbl.mem tbl v) then begin
      Hashtbl.add tbl v ();
      out := v :: !out
    end
  in
  add this_var;
  List.iter (fun (v, _) -> add v) m.m_params;
  List.iter (fun (v, _) -> add v) m.m_locals;
  List.iter (fun s -> List.iter add (stmt_vars s)) m.m_body;
  List.rev !out

let program_size program =
  let classes = List.length program.p_classes in
  let methods = List.fold_left (fun acc c -> acc + List.length c.c_methods) 0 program.p_classes in
  (classes, methods)
