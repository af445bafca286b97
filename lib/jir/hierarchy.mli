(** Class-hierarchy information and class-hierarchy-analysis (CHA) call
    resolution for ALite programs.

    The hierarchy mixes {e application classes} (parsed, with bodies)
    and {e platform declarations} (name/kind/supertype only, no bodies),
    mirroring the paper's treatment: platform method bodies are not part
    of the analyzed program. *)

type decl = {
  d_name : string;
  d_kind : [ `Class | `Interface ];
  d_super : string option;
  d_interfaces : string list;
}
(** A body-less platform type declaration. *)

type t

exception Hierarchy_error of string
(** Raised by {!create} on duplicate type names or inheritance cycles. *)

val create : ?platform:decl list -> Ast.program -> t
(** Build the hierarchy for a program together with platform
    declarations.  Unknown supertypes are tolerated (treated as roots)
    so partially-known programs can still be analyzed; {!Wellformed}
    reports them as diagnostics.  @raise Hierarchy_error on duplicates
    or cycles. *)

val with_program : t -> Ast.program -> t option
(** [with_program t program'] is the hierarchy of [program'] when it
    matches [t]'s program class for class: the same class names,
    kinds, supertypes and method keys (names and arities), position by
    position; [None] otherwise.  Each class record that differs is
    swapped in without re-indexing, so lookups ({!resolve},
    {!own_meth}, {!field_ty}) hand out the new bodies while [t] keeps
    handing out its own.  The result shares [t]'s indexes and its
    ancestor and subtype caches (they depend on names and supertypes
    alone); use the two hierarchies from one domain at a time.  Costs
    a walk of the class list and a copy of the table of classes
    swapped so far, not a rebuild. *)

val mem : t -> string -> bool

val kind : t -> string -> [ `Class | `Interface ] option

val is_application : t -> string -> bool
(** [true] iff the type came from the program (has bodies). *)

val types : t -> string list
(** All known type names, application and platform. *)

val application_classes : t -> Ast.cls list

val super : t -> string -> string option

val ancestors : t -> string -> string list
(** All strict supertypes, via [extends] and [implements], in no
    particular order. *)

val superclass_chain : t -> string -> string list
(** The [extends] chain from the type upward, excluding the type
    itself. *)

val subtype : t -> string -> string -> bool
(** [subtype t sub sup]: reflexive-transitive, across both [extends]
    and [implements]. *)

val subtypes : t -> string -> string list
(** All reflexive-transitive subtypes of a type, across [extends] and
    [implements].  Supertypes unknown to the hierarchy have subtypes
    too; a name with none gets [[]].

    Order contract: the list is [List.filter (fun n -> subtype t n name)
    (types t)] — the order of {!types}, which is fixed for a given
    program and platform.  Callers depend on it: {!cha_targets} keeps
    it, and extraction mints node ids in that order.

    Cost: the first call fills every type's list in one pass, in time
    proportional to the sum of the ancestor-set sizes; each call after
    that is one table lookup. *)

val field_ty : t -> string -> string -> Ast.ty option
(** [field_ty t cls f] looks up the declared type of field [f] starting
    at [cls] and walking up the superclass chain. *)

val own_meth : t -> string -> Ast.meth_key -> Ast.meth option
(** A method defined directly in the given application class: its first
    method with the key, as {!Ast.find_meth} picks it.

    {!create} indexes application classes by the names of the methods
    they define, once.  This lookup reads the classes defining the
    key's name from that index and searches only the given class's
    methods. *)

val resolve : t -> string -> Ast.meth_key -> (string * Ast.meth) option
(** Dynamic-dispatch lookup: the first definition of the method found
    on the superclass chain starting at the given (runtime) class.
    Returns the defining class and the method.  Reads the index once;
    a method name no application class defines answers [None] without
    walking the chain. *)

val cha_targets : t -> recv_ty:string option -> Ast.meth_key -> (string * Ast.meth) list
(** Possible targets of a virtual call, by class hierarchy analysis:
    for every application class that is a subtype of the receiver's
    static type, the dispatch result.  With [recv_ty = None] (statically
    untyped receiver) every application method with the key is a
    target, as with a receiver type the hierarchy does not know.
    Results are deduplicated by defining class.  For a known receiver
    type they come in {!subtypes} order, at the cost of one {!resolve}
    per subtype; otherwise they are {!methods_with_key}. *)

val methods_with_key : t -> Ast.meth_key -> (string * Ast.meth) list
(** All application methods having the given key, in class order, one
    per class (the {!own_meth} one).  Costs one index lookup plus a
    search of each class defining the key's name, not a scan of the
    program. *)

val iter_methods : t -> (string -> Ast.meth -> unit) -> unit
(** Iterate over all application methods with their defining class. *)
