type scope = Descendants | Children

type kind =
  | Inflate
  | Set_content
  | Add_view
  | Set_id
  | Set_listener of Listeners.iface
  | Find_view
  | Find_one of scope
  | Get_parent
  | Start_activity
  | Pass_through
  | Fragment_add
  | Menu_add
  | Set_adapter

let kind_label = function
  | Inflate -> "Inflate"
  | Set_content -> "SetContent"
  | Add_view -> "AddView"
  | Set_id -> "SetId"
  | Set_listener _ -> "SetListener"
  | Find_view -> "FindView"
  | Find_one _ -> "FindOne"
  | Get_parent -> "GetParent"
  | Start_activity -> "StartActivity"
  | Pass_through -> "PassThrough"
  | Fragment_add -> "FragmentAdd"
  | Menu_add -> "MenuAdd"
  | Set_adapter -> "SetAdapter"

(* Explicit ordering so op-site keyed maps need no polymorphic
   compare.  Interfaces are registry singletons identified by name. *)
let tag = function
  | Inflate -> 0
  | Set_content -> 1
  | Add_view -> 2
  | Set_id -> 3
  | Set_listener _ -> 4
  | Find_view -> 5
  | Find_one Descendants -> 6
  | Find_one Children -> 7
  | Get_parent -> 8
  | Start_activity -> 9
  | Pass_through -> 10
  | Fragment_add -> 11
  | Menu_add -> 12
  | Set_adapter -> 13

let compare_kind a b =
  match (a, b) with
  | Set_listener x, Set_listener y -> String.compare x.Listeners.i_name y.Listeners.i_name
  | a, b -> Int.compare (tag a) (tag b)

(* In [tag] order, one [Set_listener] per interface. *)
let kinds =
  [ Inflate; Set_content; Add_view; Set_id ]
  @ List.map (fun i -> Set_listener i) Listeners.all
  @ [
      Find_view;
      Find_one Descendants;
      Find_one Children;
      Get_parent;
      Start_activity;
      Pass_through;
      Fragment_add;
      Menu_add;
      Set_adapter;
    ]

let kind_index = function
  | Set_listener i ->
      let rec pos n = function
        | (j : Listeners.iface) :: rest -> if String.equal j.i_name i.Listeners.i_name then n else pos (n + 1) rest
        | [] -> invalid_arg "Api.kind_index: unknown listener interface"
      in
      tag (Set_listener i) + pos 0 Listeners.all
  | k -> if tag k < 4 then tag k else tag k + List.length Listeners.all - 1

let pp_kind ppf = function
  | Set_listener i -> Fmt.pf ppf "SetListener(%s)" i.Listeners.i_name
  | Find_one Descendants -> Fmt.string ppf "FindOne(descendants)"
  | Find_one Children -> Fmt.string ppf "FindOne(children)"
  | k -> Fmt.string ppf (kind_label k)

let classify ~name ~arity =
  match (name, arity) with
  | "inflate", (1 | 2 | 3) -> Some Inflate
  | "setContentView", 1 -> Some Set_content
  | "addView", (1 | 2 | 3) -> Some Add_view
  | "setId", 1 -> Some Set_id
  | "findViewById", 1 -> Some Find_view
  | "findFocus", 0 -> Some (Find_one Descendants)
  | "getCurrentView", 0 -> Some (Find_one Children)
  | "getCurrentFocus", 0 -> Some (Find_one Descendants)
  | "getChildAt", 1 -> Some (Find_one Children)
  | "getFocusedChild", 0 -> Some (Find_one Children)
  | "getSelectedView", 0 -> Some (Find_one Children)
  | "getParent", 0 -> Some Get_parent
  | ("startActivity" | "startActivityForResult"), 1 -> Some Start_activity
  | ("getFragmentManager" | "getSupportFragmentManager" | "beginTransaction"), 0 -> Some Pass_through
  | ("add" | "replace"), 2 -> Some Fragment_add
  | "add", (1 | 4) -> Some Menu_add
  | "setAdapter", 1 -> Some Set_adapter
  | "findItem", 1 -> Some Find_view
  | _ -> (
      match Listeners.by_setter name with
      | Some iface when arity = 1 -> Some (Set_listener iface)
      | Some _ | None -> None)

let return_ty ~recv_ty:_ name arity =
  match (name, arity) with
  | "inflate", (1 | 2 | 3) -> Some (Jir.Ast.Tclass "View")
  | "findViewById", 1 -> Some (Jir.Ast.Tclass "View")
  | "findFocus", 0 | "getCurrentFocus", 0 -> Some (Jir.Ast.Tclass "View")
  | "getCurrentView", 0 | "getChildAt", 1 | "getFocusedChild", 0 | "getSelectedView", 0 ->
      Some (Jir.Ast.Tclass "View")
  | "getParent", 0 -> Some (Jir.Ast.Tclass "ViewGroup")
  | "getLayoutInflater", 0 | "getMenuInflater", 0 -> Some (Jir.Ast.Tclass "LayoutInflater")
  | ("getFragmentManager" | "getSupportFragmentManager"), 0 ->
      Some (Jir.Ast.Tclass "FragmentManager")
  | "beginTransaction", 0 -> Some (Jir.Ast.Tclass "FragmentTransaction")
  | "add", (1 | 4) | "findItem", 1 -> Some (Jir.Ast.Tclass "MenuItem")
  | "getContext", 0 -> Some (Jir.Ast.Tclass "Context")
  | "getId", 0 -> Some Jir.Ast.Tint
  | _ -> None

let platform_decls = Views.decls @ Listeners.decls

let hierarchy program = Jir.Hierarchy.create ~platform:platform_decls program
