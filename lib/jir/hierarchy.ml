type decl = {
  d_name : string;
  d_kind : [ `Class | `Interface ];
  d_super : string option;
  d_interfaces : string list;
}

exception Hierarchy_error of string

module SS = Set.Make (String)

type node = {
  n_name : string;
  n_kind : [ `Class | `Interface ];
  n_super : string option;
  n_interfaces : string list;
  n_cls : Ast.cls option;  (** [Some] iff application type *)
}

type t = {
  nodes : (string, node) Hashtbl.t;
  mutable declared : string list;
      (** every type name, newest first: {!add_node} order reversed
          (platform types, then program classes) *)
  anc_cache : (string, SS.t) Hashtbl.t;
  mutable sub_index : (string, string list) Hashtbl.t option;
      (** every type's reflexive-transitive subtypes, filled in one pass
          over [nodes] on first use *)
  by_name : (string, Ast.cls list) Hashtbl.t;
      (** method name -> every application class defining a method of
          that name, once each, in class order *)
  program : Ast.program;
  swapped : (string, Ast.cls) Hashtbl.t;
      (** class name -> its current record, for the classes
          {!with_program} swapped since [nodes] and [by_name] were
          indexed (their records there are the indexed ones) *)
}

let add_node t node =
  if Hashtbl.mem t.nodes node.n_name then
    raise (Hierarchy_error (Printf.sprintf "duplicate type name %s" node.n_name));
  Hashtbl.add t.nodes node.n_name node;
  t.declared <- node.n_name :: t.declared

let parents node = (match node.n_super with Some s -> [ s ] | None -> []) @ node.n_interfaces

(* Detect cycles over the extends/implements graph, visiting types in
   declaration order: the error names the first cycle member reached. *)
let check_acyclic t =
  let module State = struct
    type mark = White | Gray | Black
  end in
  let marks : (string, State.mark) Hashtbl.t = Hashtbl.create 64 in
  let mark_of name = Option.value (Hashtbl.find_opt marks name) ~default:State.White in
  let rec visit name =
    match Hashtbl.find_opt t.nodes name with
    | None -> ()
    | Some node -> (
        match mark_of name with
        | State.Black -> ()
        | State.Gray -> raise (Hierarchy_error (Printf.sprintf "inheritance cycle through %s" name))
        | State.White ->
            Hashtbl.replace marks name State.Gray;
            List.iter visit (parents node);
            Hashtbl.replace marks name State.Black)
  in
  List.iter visit (List.rev t.declared)

(* One pass over the program.  Classes are visited last to first, so
   each list comes out in class order with no reversal; a class with
   several methods of one name is already at the head of that name's
   list after the first. *)
let index_methods t =
  List.iter
    (fun (c : Ast.cls) ->
      List.iter
        (fun (m : Ast.meth) ->
          match Hashtbl.find_opt t.by_name m.m_name with
          | Some (c' :: _) when c' == c -> ()
          | prev -> Hashtbl.replace t.by_name m.m_name (c :: Option.value prev ~default:[]))
        c.c_methods)
    (List.rev t.program.Ast.p_classes)

let create ?(platform = []) program =
  let t =
    {
      nodes = Hashtbl.create 128;
      declared = [];
      anc_cache = Hashtbl.create 128;
      sub_index = None;
      (* at most one binding per method, and a table resizes only
         past two bindings per bucket: indexing never resizes *)
      by_name = Hashtbl.create (snd (Ast.program_size program) / 2);
      program;
      swapped = Hashtbl.create 1;
    }
  in
  List.iter
    (fun d ->
      add_node t
        { n_name = d.d_name; n_kind = d.d_kind; n_super = d.d_super; n_interfaces = d.d_interfaces; n_cls = None })
    platform;
  List.iter
    (fun (c : Ast.cls) ->
      add_node t
        {
          n_name = c.c_name;
          n_kind = c.c_kind;
          n_super = c.c_super;
          n_interfaces = c.c_interfaces;
          n_cls = Some c;
        })
    program.p_classes;
  check_acyclic t;
  index_methods t;
  t

let mem t name = Hashtbl.mem t.nodes name

let kind t name = Option.map (fun n -> n.n_kind) (Hashtbl.find_opt t.nodes name)

let is_application t name =
  match Hashtbl.find_opt t.nodes name with Some { n_cls = Some _; _ } -> true | _ -> false

let types t = List.rev t.declared

let application_classes t = t.program.Ast.p_classes

let super t name =
  match Hashtbl.find_opt t.nodes name with Some n -> n.n_super | None -> None

let rec ancestors_set t name =
  match Hashtbl.find_opt t.anc_cache name with
  | Some s -> s
  | None ->
      (* Break cycles defensively even though [create] rejects them. *)
      Hashtbl.replace t.anc_cache name SS.empty;
      let s =
        match Hashtbl.find_opt t.nodes name with
        | None -> SS.empty
        | Some node ->
            List.fold_left
              (fun acc p -> SS.union acc (SS.add p (ancestors_set t p)))
              SS.empty (parents node)
      in
      Hashtbl.replace t.anc_cache name s;
      s

let ancestors t name = SS.elements (ancestors_set t name)

let superclass_chain t name =
  let rec go acc name =
    match super t name with Some s -> go (s :: acc) s | None -> List.rev acc
  in
  go [] name

let subtype t sub sup = sub = sup || SS.mem sup (ancestors_set t sub)

(* Each type joins the list of every ancestor and of itself, visiting
   types newest-declared first: every list comes out in declaration
   order, the order of {!types}. *)
let build_sub_index t =
  let index = Hashtbl.create (Hashtbl.length t.nodes) in
  let push sup n =
    Hashtbl.replace index sup (n :: Option.value (Hashtbl.find_opt index sup) ~default:[])
  in
  List.iter
    (fun n ->
      push n n;
      SS.iter (fun sup -> push sup n) (ancestors_set t n))
    t.declared;
  t.sub_index <- Some index;
  index

let subtypes t name =
  let index = match t.sub_index with Some index -> index | None -> build_sub_index t in
  Option.value (Hashtbl.find_opt index name) ~default:[]

(* Same-key class swap: a class whose name, kind, supertypes and
   method keys are unchanged indexes exactly as before, so only its
   record changes, which [swapped] maps its name to; lookups read a
   class through it.  The indexes, the ancestor cache and the subtype
   index depend on names and supertypes alone: the result shares them
   with [t], the subtype index built first so that neither hierarchy
   fills it again. *)
let same_key (c : Ast.cls) (c' : Ast.cls) =
  Ast.same_class_key c c' && List.equal Ast.same_meth_arity c.c_methods c'.c_methods

let with_program t (program : Ast.program) =
  let rec swaps acc cs cs' =
    match (cs, cs') with
    | [], [] -> Some acc
    | c :: cs, c' :: cs' when c == c' -> swaps acc cs cs'
    | c :: cs, c' :: cs' when same_key c c' -> swaps (c' :: acc) cs cs'
    | _ -> None
  in
  Option.map
    (fun classes ->
      if t.sub_index = None then ignore (build_sub_index t);
      let swapped = Hashtbl.copy t.swapped in
      List.iter (fun (c : Ast.cls) -> Hashtbl.replace swapped c.c_name c) classes;
      { t with program; swapped })
    (swaps [] t.program.Ast.p_classes program.Ast.p_classes)

(* The current record of an indexed application class. *)
let current t (c : Ast.cls) =
  if Hashtbl.length t.swapped = 0 then c
  else match Hashtbl.find_opt t.swapped c.c_name with Some c' -> c' | None -> c

let rec field_ty t cls f =
  match Hashtbl.find_opt t.nodes cls with
  | None -> None
  | Some node -> (
      let own =
        match node.n_cls with
        | Some c -> List.assoc_opt f (current t c).Ast.c_fields
        | None -> None
      in
      match own with
      | Some ty -> Some ty
      | None -> ( match node.n_super with Some s -> field_ty t s f | None -> None))

let classes_defining t (key : Ast.meth_key) =
  Option.value (Hashtbl.find_opt t.by_name key.mk_name) ~default:[]

let methods_with_key t key =
  List.filter_map
    (fun (c : Ast.cls) -> Option.map (fun m -> (c.c_name, m)) (Ast.find_meth (current t c) key))
    (classes_defining t key)

let rec find_def t cls key = function
  | [] -> None
  | (c : Ast.cls) :: rest ->
      if String.equal c.c_name cls then Ast.find_meth (current t c) key else find_def t cls key rest

let own_meth t cls key = find_def t cls key (classes_defining t key)

(* The classes defining the key's name are looked up once; a name no
   application class defines resolves to [None] without walking the
   chain. *)
let resolve t cls key =
  match classes_defining t key with
  | [] -> None
  | defs ->
      let rec up cls =
        match find_def t cls key defs with
        | Some m -> Some (cls, m)
        | None -> ( match super t cls with Some s -> up s | None -> None)
      in
      up cls

(* A name no application class defines has no targets whatever the
   receiver, so platform calls skip the subtype walk. *)
let cha_targets t ~recv_ty key =
  match recv_ty with
  | Some ty when mem t ty && classes_defining t key <> [] ->
      let seen = Hashtbl.create 8 in
      List.filter_map
        (fun sub ->
          match Hashtbl.find_opt t.nodes sub with
          | Some { n_kind = `Class; n_cls = Some _; _ } -> (
              match resolve t sub key with
              | Some (owner, m) when not (Hashtbl.mem seen owner) ->
                  Hashtbl.add seen owner ();
                  Some (owner, m)
              | _ -> None)
          | _ -> None)
        (subtypes t ty)
  | _ -> methods_with_key t key

let iter_methods t f =
  List.iter
    (fun (c : Ast.cls) -> List.iter (fun m -> f c.c_name m) c.Ast.c_methods)
    t.program.Ast.p_classes
