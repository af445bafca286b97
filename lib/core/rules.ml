(* The Section 4.2 inference rules as data, and the reference engine
   that interprets them.

   [rules] lists one named entry per rule: what it fires on, its
   premises over the relations (points-to, parent-child, view=>id,
   holder=>root, method resolution, the layout package) and its
   conclusions.  Premises several rules share (which layouts an
   argument names, which views answer an id query, which values are
   content holders) are choices between named clauses; the ⊤ rules of
   DESIGN §15 are such clauses.  A [Config] gate is a premise like any
   other.

   A second, smaller table ([taint_rules]) derives sound mode's
   imprecision taint from the points-to fixpoint: a stratum over a
   taint relation and a set of tainted views.

   Both engines read these tables.  The evaluator here knows no rule:
   it enumerates the bindings that satisfy an entry's premises, left
   to right, and adds its conclusions.  [run] is the naive reference
   solve: seed, then apply every op's entries, the once-per-round
   entries and flow propagation over full structural sets until a
   round adds nothing, then the taint stratum the same way, and
   encode the fixpoint into the graph's solution store.  [step]
   applies one round of both to an installed solution and reports
   what it adds.  The interned engine ([Solve]) stages the same
   entries into closures over its id rows; the premise and clause
   order below is the order it pushes values, mints ids and inserts
   rows in, which the answers here do not depend on. *)

module VS = Graph.VS

(* Can a value pass through a cast to [cls]?  Sound filtering: the
   abstract object's dynamic class is known exactly, so the cast
   succeeds iff it is a subtype of [cls].  Unknown classes pass. *)
let passes_cast hierarchy cls value =
  let compatible c = (not (Jir.Hierarchy.mem hierarchy c)) || Jir.Hierarchy.subtype hierarchy c cls in
  if not (Jir.Hierarchy.mem hierarchy cls) then true
  else
    match value with
    | Node.V_view v -> compatible (Node.class_of_view v)
    | Node.V_obj a -> compatible a.a_cls
    | Node.V_act a -> compatible a
    | Node.V_layout_id _ | Node.V_view_id _ -> false
    | Node.V_layout_top | Node.V_view_id_top -> false

(* {1 The rule language} *)

(* A variable names a bound term.  A premise over a bound variable
   tests it; ["_"] only asks that some match exists. *)
type var = string

(* The op's locations, those of a method bound by [Callback] (a
   listener handler's view and item parameters among them), and the
   location an [Anywhere] entry is applied at. *)
type loc =
  | Recv | Arg of int | Out | This of var | Param of var * int | View_param of var | Item_param of var
  | Ret of var
  | Here

(* The values a premise binds at a location.  [Obj c]: non-view
   objects of a subclass of [c]; [Listener i]: objects implementing
   interface [i] (a custom view as its allocated object); [Id_query]:
   the view ids and the ⊤ id a find-view argument asks for. *)
type sort =
  | Any | View | Layout_id | View_id | Id_query | Is of Node.value | Activity | Obj of string | Menu
  | Listener of string

(* Relations read either way: a premise with the first term unbound
   reads the inverse (parents, an id's carriers, a root's holders);
   with both unbound, every pair. *)
type rel = Child | Id | Root

(* Methods by name, the handlers of a listener interface, or the
   [android:onClick] names a view carries. *)
type callee = Named of (string * int) | Handlers of Framework.Listeners.iface | Onclick of var

type premise =
  | Gate of (Config.t -> bool)
  | In of loc * sort * var
  | Rel of rel * var * var
  | Desc of bool * var * var
      (** [Desc (reflexive, a, d)]: [d] lies under [a] (or is [a]); walks down from a bound [a], else up *)
  | Const of var * Node.value
  | Layout of var  (** every layout id of the package *)
  | Inflate of var * var  (** the root of the layout inflated at the op's site, minted on first use *)
  | Callback of var * callee * var  (** a method the term's class resolves *)
  | Declared of var * var  (** a [<fragment>] placeholder and its fragment *)
  | Onclick_view of var  (** an inflated view with an [android:onClick] handler *)
  | Item of var  (** the MenuItem minted at the op's site *)
  | Owner of var * var  (** the activity of an options menu *)
  | Tainted of loc * sort * var  (** like [In], over the location's taint *)
  | Inflated of var * var  (** a view of the subtree inflated for layout [l] at the op's site, if any *)
  | Tainted_view of var  (** a view of the tainted-view set *)
  | Any_of of clause list

and clause = { name : string; ix : int; premises : premise list }

type conclusion =
  | Flow of loc * var
  | Add of rel * var * var
  | Listen of var * var * string  (** a registration under the named interface *)
  | Taint of loc * var  (** taint the value at the location, when its points-to set holds it *)
  | Taint_view of var  (** put the view in the tainted-view set *)

(* [Round] entries fire once per round, after the ops; [Anywhere]
   entries (taint only) at every location, after the ops. *)
type entry = { rule : clause; on : on; conclusions : conclusion list }

and on = Op of (Framework.Api.kind -> bool) | Round | Anywhere

let registry = ref []

(* One index per name, however many entries share it, so firing
   counts add up per name. *)
let clause name premises =
  if not (List.mem name !registry) then registry := !registry @ [ name ];
  let rec index i = function n :: rest -> if n = name then i else index (i + 1) rest | [] -> i in
  { name; ix = index 0 !registry; premises }

let entry name on premises conclusions = { rule = clause name premises; on; conclusions }

let is k = Op (fun k' -> Framework.Api.compare_kind k k' = 0)

let sentinel = Node.V_view_id Node.top_view_id_raw

let callbacks = Gate (fun c -> c.Config.listener_callbacks)

let refined = Gate (fun c -> c.Config.findone_refinement)

let unrefined = Gate (fun c -> not c.Config.findone_refinement)

let dialogs = Gate (fun c -> c.Config.model_dialogs)

let on_create_view = Named ("onCreateView", 0)

(* {1 The table} *)

let holder x h =
  Any_of
    [ clause "Activity holder" [ In (x, Activity, h) ]; clause "Dialog holder" [ dialogs; In (x, Obj "Dialog", h) ] ]

let layout x l =
  Any_of
    [ clause "Inflate(⊤)" [ In (x, Is Node.V_layout_top, "_"); Layout l ];
      clause "Layout id" [ In (x, Layout_id, l) ] ]

let view_id x i =
  Any_of
    [ clause "SetId(⊤)" [ In (x, Is Node.V_view_id_top, "_"); Const (i, sentinel) ];
      clause "View id" [ In (x, View_id, i) ] ]

(* View [d] under (or at) [root] answers the queried id [k]
   (FINDVIEW's [=> id]): it carries [k], or the sentinel of a
   [SetId(v, ⊤)], or [k] is ⊤ and it carries some id. *)
let matches k root d =
  Any_of
    [ clause "Id match" [ Rel (Id, d, k); Desc (true, root, d) ];
      clause "Sentinel match" [ Const ("s", sentinel); Rel (Id, d, "s"); Desc (true, root, d) ];
      clause "FindView(v, ⊤)" [ Const (k, Node.V_view_id_top); Desc (true, root, d); Rel (Id, d, "_") ] ]

let rules =
  let open Framework.Api in
  let set_listener (i : Framework.Listeners.iface) =
    let on = is (Set_listener i) in
    let registered = [ In (Recv, View, "v"); In (Arg 0, Listener i.i_name, "l") ] in
    let handler = registered @ [ callbacks; Callback ("l", Handlers i, "m") ] in
    [ entry "SetListener" on registered [ Listen ("v", "l", i.i_name) ];
      entry "SetListener this" on handler [ Flow (This "m", "l") ];
      entry "SetListener view" on handler [ Flow (View_param "m", "v") ];
      entry "SetListener item" on (handler @ [ Rel (Child, "v", "c") ]) [ Flow (Item_param "m", "c") ] ]
  in
  let inflated = [ layout (Arg 0) "l"; Inflate ("l", "r") ] in
  let query = In (Arg 0, Id_query, "k") in
  (* [d] answers the query under a root of a receiver holder *)
  let in_holder = [ query; holder Recv "h"; Rel (Root, "h", "r"); matches "k" "r" "d" ] in
  let fragment = [ In (Arg 1, Obj "Fragment", "f"); Callback ("f", on_create_view, "m") ] in
  let item = [ Item "i"; In (Recv, Menu, "u") ] in
  let owner = [ Owner ("u", "a"); Callback ("a", Named Framework.Lifecycle.on_options_item_selected, "m") ] in
  let adapter =
    [ In (Recv, View, "v"); In (Arg 0, Obj "Adapter", "a"); Callback ("a", Named ("getView", 3), "m") ]
  in
  let onclick =
    [ Onclick_view "d"; Rel (Root, "h", "r"); Desc (true, "r", "d"); Callback ("h", Onclick "d", "m") ]
  in
  let declared = [ Declared ("d", "f"); Callback ("f", on_create_view, "m") ] in
  [
    (* Section 4.2 *)
    entry "Inflate1" (is Inflate) inflated [ Flow (Out, "r") ];
    entry "Inflate attach" (is Inflate) (inflated @ [ In (Arg 1, View, "p") ]) [ Add (Child, "p", "r") ];
    entry "Inflate2" (is Set_content) (inflated @ [ holder Recv "h" ]) [ Add (Root, "h", "r") ];
    entry "AddView1" (is Set_content) [ In (Arg 0, View, "v"); holder Recv "h" ] [ Add (Root, "h", "v") ];
    entry "AddView2" (is Add_view) [ In (Recv, View, "p"); In (Arg 0, View, "c") ] [ Add (Child, "p", "c") ];
    entry "SetId" (is Set_id) [ In (Recv, View, "v"); view_id (Arg 0) "i" ] [ Add (Id, "v", "i") ];
  ]
  @ List.concat_map set_listener Framework.Listeners.all
  @ [
    entry "FindView1" (is Find_view) [ query; In (Recv, View, "v"); matches "k" "v" "d" ] [ Flow (Out, "d") ];
    entry "FindView2" (is Find_view) in_holder [ Flow (Out, "d") ];
    entry "FindView3 children" (is (Find_one Children))
      [ refined; In (Recv, View, "v"); Rel (Child, "v", "d") ] [ Flow (Out, "d") ];
    entry "FindView3 descendants" (is (Find_one Descendants))
      [ In (Recv, View, "v"); Desc (false, "v", "d") ] [ Flow (Out, "d") ];
    entry "FindView3 unrefined" (is (Find_one Children))
      [ unrefined; In (Recv, View, "v"); Desc (false, "v", "d") ] [ Flow (Out, "d") ];
    entry "GetParent" (is Get_parent) [ In (Recv, View, "v"); Rel (Child, "p", "v") ] [ Flow (Out, "p") ];
    entry "PassThrough" (is Pass_through) [ In (Recv, Any, "x") ] [ Flow (Out, "x") ];
    (* Extensions (DESIGN §5); startActivity concludes nothing: its
       transitions are a read over the solved sets *)
    entry "FragmentAdd this" (is Fragment_add) fragment [ Flow (This "m", "f") ];
    entry "FragmentAdd" (is Fragment_add)
      (fragment @ in_holder @ [ In (Ret "m", View, "c") ]) [ Add (Child, "d", "c") ];
    entry "MenuAdd" (is Menu_add) item [ Add (Child, "u", "i"); Flow (Out, "i") ];
    entry "MenuAdd id" (is Menu_add) (item @ [ view_id (Arg 1) "n" ]) [ Add (Id, "i", "n") ];
    entry "MenuAdd callback" (is Menu_add) (item @ owner) [ Flow (Param ("m", 0), "i") ];
    entry "SetAdapter callback" (is Set_adapter) adapter [ Flow (This "m", "a"); Flow (Param ("m", 2), "v") ];
    entry "SetAdapter" (is Set_adapter) (adapter @ [ In (Ret "m", View, "c") ]) [ Add (Child, "v", "c") ];
    entry "OnClick" Round onclick [ Listen ("d", "h", "OnClickListener") ];
    entry "OnClick callback" Round (onclick @ [ callbacks ]) [ Flow (This "m", "h"); Flow (Param ("m", 0), "d") ];
    entry "Declared fragment" Round declared [ Flow (This "m", "f") ];
    entry "Declared fragment views" Round (declared @ [ In (Ret "m", View, "c") ]) [ Add (Child, "d", "c") ];
  ]

(* {1 The taint stratum}

   Sound mode's imprecision taint (DESIGN §15): value [v] at node [n]
   is tainted when its presence may depend on how an unknown-id marker
   resolves.  Taint is a relation inside points-to ([taint n ⊆ set n]:
   a [Taint] conclusion holds only where the set holds the value), and
   the views of a ⊤ inflation form a tainted-view set.  Nothing in
   [rules] reads either, so both engines evaluate these entries as a
   second stratum, once points-to has reached its fixpoint, and only
   when the graph holds a marker.  Like points-to, taint flows along
   every flow edge, cast-filtered, as part of each engine's
   propagation.  The entries are the rest:
   - a marker taints itself wherever it occurs;
   - a ⊤ layout at an Inflate/SetContent puts every view inflated at
     that site into the tainted-view set;
   - a FindView queried with ⊤, or under a tainted view, taints the
     views of its result; so does a FindOne or GetParent under a
     tainted view;
   - a FindView result carrying the ⊤ sentinel id is tainted (any
     query matches it);
   - PassThrough copies the receiver's taint;
   - the lift taints a tainted view wherever it appears.
   Only markers and views are ever tainted (no conclusion taints
   anything else), so a tainted concrete layout or view id, or a
   tainted activity or dialog scope, cannot arise and has no entry.
   Relations, listener registrations and handler-parameter flows carry
   no taint. *)
let taint_rules =
  let open Framework.Api in
  let out_views = In (Out, View, "d") in
  [
    entry "Taint marker" Anywhere
      [
        Any_of
          [
            clause "Taint ⊤ layout" [ In (Here, Is Node.V_layout_top, "x") ];
            clause "Taint ⊤ id" [ In (Here, Is Node.V_view_id_top, "x") ];
          ];
      ]
      [ Taint (Here, "x") ];
    entry "Taint Inflate(⊤)"
      (Op (function Inflate | Set_content -> true | _ -> false))
      [ In (Arg 0, Is Node.V_layout_top, "_"); Layout "l"; Inflated ("l", "v") ]
      [ Taint_view "v" ];
    entry "Taint FindView" (is Find_view)
      [
        Any_of
          [
            clause "Taint FindView(v, ⊤)" [ In (Arg 0, Is Node.V_view_id_top, "_") ];
            clause "Taint FindView scope" [ Tainted (Recv, View, "_") ];
          ];
        out_views;
      ]
      [ Taint (Out, "d") ];
    entry "Taint sentinel" (is Find_view) [ Const ("s", sentinel); out_views; Rel (Id, "d", "s") ] [ Taint (Out, "d") ];
    entry "Taint FindOne/GetParent"
      (Op (function Find_one _ | Get_parent -> true | _ -> false))
      [ Tainted (Recv, View, "_"); out_views ]
      [ Taint (Out, "d") ];
    entry "Taint PassThrough" (is Pass_through) [ Tainted (Recv, Any, "x") ] [ Taint (Out, "x") ];
    entry "Taint lift" Anywhere [ In (Here, View, "v"); Tainted_view "v" ] [ Taint (Here, "v") ];
  ]

let names = !registry

(* {1 Footprints} *)

type footprint = { reads : rel list; writes : rel list; listens : bool; resolves : bool }

let rec flatten = function
  | Any_of cs :: rest -> List.concat_map (fun c -> flatten c.premises) cs @ flatten rest
  | p :: rest -> p :: flatten rest
  | [] -> []

let on_kind kind = List.filter (fun e -> match e.on with Op p -> p kind | Round | Anywhere -> false)

let entries_on kind = on_kind kind rules

let taint_entries_on kind = on_kind kind taint_rules

let round_entries = List.filter (fun e -> match e.on with Round -> true | Op _ | Anywhere -> false) rules

let anywhere_entries = List.filter (fun e -> match e.on with Anywhere -> true | Op _ | Round -> false) taint_rules

let footprint kind =
  let entries = entries_on kind in
  let premises = List.concat_map (fun e -> flatten e.rule.premises) entries in
  let conclusions = List.concat_map (fun e -> e.conclusions) entries in
  let reads r = List.exists (function Rel (r', _, _) -> r' = r | Desc _ -> r = Child | _ -> false) premises in
  let inflates = List.exists (function Inflate _ -> true | _ -> false) premises in
  let writes r =
    (inflates && r <> Root) || List.exists (function Add (r', _, _) -> r' = r | _ -> false) conclusions
  in
  {
    reads = List.filter reads [ Child; Id; Root ];
    writes = List.filter writes [ Child; Id; Root ];
    listens = List.exists (function Listen _ -> true | _ -> false) conclusions;
    resolves = List.exists (function Callback _ -> true | _ -> false) premises;
  }

(* {1 The evaluator} *)

type term = V of Node.value | M of Node.mid * Jir.Ast.meth * Framework.Listeners.handler option

type state = {
  config : Config.t;
  app : Framework.App.t;
  graph : Graph.t;
  worklist : Node.t Util.Worklist.t;
  sets : (Node.t, VS.t) Hashtbl.t;
  rels : (Node.value, VS.t) Hashtbl.t array;  (** each relation, then its inverse *)
  listeners : (Node.view_abs, Graph.Listener_set.t) Hashtbl.t;
  taints : (Node.t, VS.t) Hashtbl.t;
  mutable tainted_views : VS.t;
  tworklist : Node.t Util.Worklist.t;  (** nodes whose taint grew *)
  mutable here : Node.t option;  (** where an [Anywhere] entry is applied *)
  fired : int array;  (** per name in [names] *)
  mutable rule : string;  (** the entry being applied *)
  mutable added : string list option;  (** what [step] reports *)
  mutable propagations : int;
  mutable op_applications : int;
  mutable dirty : bool;  (** a set or relation grew during the current round *)
}

let table st r = st.rels.(match r with Child -> 0 | Id -> 2 | Root -> 4)

let inverse st r = st.rels.(match r with Child -> 1 | Id -> 3 | Root -> 5)

let find tbl key = Option.value (Hashtbl.find_opt tbl key) ~default:VS.empty

let set_of st node = find st.sets node

let taint_of st node = find st.taints node

(* Whether the set grew: [Set.add] returns its argument when [v] is in it. *)
let add_to (type s elt) (module S : Set.S with type t = s and type elt = elt) tbl key v =
  let existing = Option.value (Hashtbl.find_opt tbl key) ~default:S.empty in
  let updated = S.add v existing in
  updated != existing && (Hashtbl.replace tbl key updated; true)

let note st describe = Option.iter (fun l -> st.added <- Some ((st.rule ^ ": " ^ describe ()) :: l)) st.added

let grew st changed describe = if changed then (st.dirty <- true; note st describe)

let add_values st node vs =
  let existing = set_of st node in
  let changed = not (VS.subset vs existing) in
  if changed then begin
    Hashtbl.replace st.sets node (VS.union existing vs);
    Util.Worklist.add st.worklist node;
    note st (fun () ->
        Fmt.str "%a gets %a" Node.pp node Fmt.(Dump.list Node.pp_value) (VS.elements (VS.diff vs existing)))
  end;
  changed

(* Taint stays inside points-to: only the values [node]'s set holds. *)
let add_taint st node vs =
  let vs = VS.inter vs (set_of st node) and existing = taint_of st node in
  if not (VS.subset vs existing) then begin
    Hashtbl.replace st.taints node (VS.union existing vs);
    Util.Worklist.add st.tworklist node;
    st.dirty <- true;
    note st (fun () ->
        Fmt.str "%a tainted with %a" Node.pp node Fmt.(Dump.list Node.pp_value) (VS.elements (VS.diff vs existing)))
  end

let relate st r x y =
  let changed = add_to (module VS) (table st r) x y in
  if changed then ignore (add_to (module VS) (inverse st r) y x);
  grew st changed (fun () -> Fmt.str "%a => %a" Node.pp_value x Node.pp_value y)

(* The values reachable from [root] over [tbl] (children or parents). *)
let closure tbl ~reflexive root =
  let rec walk v seen =
    VS.fold (fun w seen -> if VS.mem w seen then seen else walk w (VS.add w seen)) (find tbl v) seen
  in
  walk root (if reflexive then VS.singleton root else VS.empty)

let class_of = function
  | Node.V_view v -> Some (Node.class_of_view v)
  | Node.V_obj site -> Some site.a_cls
  | Node.V_act a -> Some a
  | _ -> None

let classify st sort v =
  let of_class super =
    match class_of v with Some c when Jir.Hierarchy.subtype st.app.hierarchy c super -> Some v | _ -> None
  in
  match (sort, v) with
  | Any, _ | View, Node.V_view _ | Layout_id, Node.V_layout_id _ | View_id, Node.V_view_id _ -> Some v
  | Id_query, (Node.V_view_id _ | Node.V_view_id_top) -> Some v
  | Is w, _ -> if Node.equal_value v w then Some v else None
  | Activity, Node.V_act _ -> Some v
  | Obj super, Node.V_obj _ -> of_class super
  | Menu, Node.V_view _ -> of_class "Menu"
  | Listener iface, (Node.V_obj _ | Node.V_act _ | Node.V_view (Node.V_alloc _)) -> (
      match of_class iface with
      | Some (Node.V_view (Node.V_alloc site)) -> Some (Node.V_obj site)
      | r -> r)
  | _ -> None

let rec bound env x =
  match env with [] -> None | (y, t) :: env -> if String.equal x y then Some t else bound env x

let value env x = match bound env x with Some (V v) -> v | _ -> invalid_arg ("Rules: " ^ x)

let meth env x = match bound env x with Some (M (mid, m, h)) -> (mid, m, h) | _ -> invalid_arg ("Rules: " ^ x)

let locate st (op : Graph.op option) env loc =
  let mid x = match meth env x with mid, _, _ -> mid in
  let param x k =
    let mid, m, _ = meth env x in
    Option.map (fun (p, _) -> Node.N_var (mid, p)) (Option.bind k (List.nth_opt m.Jir.Ast.m_params))
  in
  let handler x f = match meth env x with _, _, h -> Option.bind h f in
  match loc with
  | Recv -> Option.map (fun (op : Graph.op) -> op.op_recv) op
  | Arg k -> Option.bind op (fun op -> List.nth_opt op.op_args k)
  | Out -> Option.bind op (fun op -> op.op_out)
  | This x -> Some (Node.N_var (mid x, Jir.Ast.this_var))
  | Param (x, k) -> param x (Some k)
  | View_param x -> param x (handler x (fun h -> h.h_view_param))
  | Item_param x -> param x (handler x (fun h -> h.h_item_param))
  | Ret x -> Some (Node.N_ret (mid x))
  | Here -> st.here

(* The methods [callee] names, resolved on the class of [x]'s value. *)
let resolve st env x callee =
  let targets =
    match callee with
    | Named (name, arity) -> [ (name, arity, None) ]
    | Handlers i ->
        List.map (fun (h : Framework.Listeners.handler) -> (h.h_name, h.h_arity, Some h)) i.i_handlers
    | Onclick d -> (
        match value env d with
        | Node.V_view v ->
            List.map (fun n -> (n, 1, None)) (Option.to_list (Inflate.onclick st.app.package v))
        | _ -> [])
  in
  let resolve cls (name, arity, h) =
    Jir.Hierarchy.resolve st.app.hierarchy cls { Jir.Ast.mk_name = name; mk_arity = arity }
    |> Option.map (fun (owner, m) -> M (Node.mid_of_meth owner m, m, h))
  in
  match class_of (value env x) with Some cls -> List.filter_map (resolve cls) targets | None -> []

let relate_facts st (f : Inflate.facts) =
  List.iter (fun (v, id) -> relate st Id (Node.V_view v) (Node.V_view_id id)) f.view_ids;
  List.iter (fun (p, c) -> relate st Child (Node.V_view p) (Node.V_view c)) f.children

(* Lazy inflation (INFLATE1/2): a fresh subtree's ids and children
   enter the relations. *)
let inflate_at st (op : Graph.op) lid =
  match Layouts.Package.find_by_layout_id st.app.package lid with
  | None -> None
  | Some def ->
      let resources = Layouts.Package.resources st.app.package in
      let views, facts = Inflate.instantiate st.graph ~resources ~site:op.site.o_site def in
      Option.iter
        (fun f ->
          relate_facts st f;
          st.dirty <- true)
        facts;
      Some (Node.V_view (Inflate.root views))

let layout_ids st =
  let resources = Layouts.Package.resources st.app.package in
  List.filter_map
    (fun (def : Layouts.Layout.def) ->
      Option.map (fun l -> Node.V_layout_id l) (Layouts.Resource.find_layout_id resources def.name))
    (Layouts.Package.layouts st.app.package)

(* The [<fragment>] placeholders of the inflation memo, each with its
   fragment object, and its views with an [android:onClick] name. *)
let declared st =
  let acc = ref [] in
  Inflate.iter_memo st.graph st.app.package (fun d node ->
      match (d, node.Layouts.Layout.fragment_class) with
      | Node.V_infl infl, Some cls ->
          acc := (Node.V_view d, Node.V_obj (Node.declared_fragment_site cls infl)) :: !acc
      | _ -> ());
  !acc

let onclick_views st =
  let acc = ref [] in
  Inflate.iter_memo st.graph st.app.package (fun d node ->
      if Option.is_some node.Layouts.Layout.onclick then acc := Node.V_view d :: !acc);
  List.rev !acc

(* Bind [x] to each candidate, or test a bound [x]; ["_"] asks that
   one exists. *)
let choose env x candidates k =
  if String.equal x "_" then (if not (Seq.is_empty candidates) then k env)
  else
    match bound env x with
    | Some (V v) -> if Seq.exists (Node.equal_value v) candidates then k env
    | _ -> Seq.iter (fun v -> k ((x, V v) :: env)) candidates

(* Count a binding that satisfied [c], then continue with it. *)
let fire st (c : clause) k env =
  st.fired.(c.ix) <- st.fired.(c.ix) + 1;
  k env

(* Call [k] on every extension of [env] satisfying [premises]. *)
let rec prove st op env premises k =
  match premises with
  | [] -> k env
  | p :: rest -> (
      let k env = prove st op env rest k in
      let bind x t = k ((x, t) :: env) in
      let related tbl r x y = choose env y (VS.to_seq (find (tbl st r) (value env x))) k in
      let within get loc sort x =
        let set = Option.fold ~none:VS.empty ~some:get (locate st op env loc) in
        match bound env x with
        | Some (V v) -> if VS.mem v set && Option.is_some (classify st sort v) then k env
        | _ -> choose env x (Seq.filter_map (classify st sort) (VS.to_seq set)) k
      in
      match p with
      | Gate g -> if g st.config then k env
      | In (loc, sort, x) -> within (set_of st) loc sort x
      | Tainted (loc, sort, x) -> within (taint_of st) loc sort x
      | Rel (r, x, y) -> (
          match (bound env x, bound env y) with
          | Some _, _ -> related table r x y
          | None, Some _ -> related inverse r y x
          | None, None ->
              List.iter
                (fun (a, s) -> choose ((x, V a) :: env) y (VS.to_seq s) k)
                (List.of_seq (Hashtbl.to_seq (table st r))))
      | Desc (reflexive, a, d) -> (
          (* both bound: walk up from [d], the short way *)
          match (bound env a, bound env d) with
          | Some (V v), None -> choose env d (VS.to_seq (closure (table st Child) ~reflexive v)) k
          | _ -> choose env a (VS.to_seq (closure (inverse st Child) ~reflexive (value env d))) k)
      | Const (x, v) -> choose env x (Seq.return v) k
      | Layout x -> choose env x (List.to_seq (layout_ids st)) k
      | Inflate (l, r) -> (
          match (op, value env l) with
          | Some op, Node.V_layout_id lid -> Option.iter (fun v -> bind r (V v)) (inflate_at st op lid)
          | _ -> ())
      | Callback (x, callee, m) -> List.iter (bind m) (resolve st env x callee)
      | Declared (d, f) -> List.iter (fun (dv, fv) -> k ((f, V fv) :: (d, V dv) :: env)) (declared st)
      | Onclick_view d -> List.iter (fun v -> bind d (V v)) (onclick_views st)
      | Item x ->
          let item (op : Graph.op) = V (Node.V_view (Node.V_alloc (Node.menu_item_site op.site.o_site))) in
          Option.iter (fun op -> bind x (item op)) op
      | Owner (u, a) ->
          let owner = match value env u with Node.V_view (Node.V_alloc s) -> Node.menu_owner s | _ -> None in
          Option.iter (fun o -> bind a (V (Node.V_act o))) owner
      | Inflated (l, v) -> (
          match (op, value env l) with
          | Some op, Node.V_layout_id lid ->
              let views =
                Option.bind (Layouts.Package.find_by_layout_id st.app.package lid) (fun def ->
                    Graph.find_inflation st.graph ~site:op.site.o_site ~layout:def.Layouts.Layout.name)
              in
              List.iter (fun w -> bind v (V (Node.V_view w))) (Option.value views ~default:[])
          | _ -> ())
      | Tainted_view v -> (
          match bound env v with
          | Some (V w) -> if VS.mem w st.tainted_views then k env
          | _ -> choose env v (VS.to_seq st.tainted_views) k)
      | Any_of clauses -> List.iter (fun c -> prove st op env c.premises (fire st c k)) clauses)

let conclude st op env = function
  | Flow (loc, x) ->
      let flow n = if add_values st n (VS.singleton (value env x)) then st.dirty <- true in
      Option.iter flow (locate st op env loc)
  | Add (r, x, y) -> relate st r (value env x) (value env y)
  | Listen (v, l, iface) ->
      let listener = function Node.V_obj s -> Node.L_alloc s | v -> Node.L_act (Option.get (class_of v)) in
      let l = listener (value env l) in
      let view = Option.get (Node.view_of_value (value env v)) in
      grew st (add_to (module Graph.Listener_set) st.listeners view (l, iface)) (fun () ->
          Fmt.str "%a listens to %a" Node.pp_listener l Node.pp_view view)
  | Taint (loc, x) -> Option.iter (fun n -> add_taint st n (VS.singleton (value env x))) (locate st op env loc)
  | Taint_view x ->
      (* the set is re-derived from the taint rows, so [step] does not
         report it *)
      let v = value env x in
      if not (VS.mem v st.tainted_views) then begin
        st.tainted_views <- VS.add v st.tainted_views;
        st.dirty <- true
      end

let apply st op (e : entry) =
  st.rule <- e.rule.name;
  prove st op [] e.rule.premises (fire st e.rule (fun env -> List.iter (conclude st op env) e.conclusions))

(* Worklist propagation of full sets along every frozen flow edge,
   context clones' included: [values] of each node [worklist] pops
   reach its successors through [add], cast-filtered. *)
let flow st worklist values add =
  let it = Graph.interner st.graph and fc = Graph.frozen_flow st.graph in
  Util.Worklist.drain worklist (fun node ->
      match Intern.find_node it node with
      | Some src when src < fc.fc_nodes ->
          let values = values node in
          for e = fc.fc_row.(src) to fc.fc_row.(src + 1) - 1 do
            let dst = Intern.node_of it fc.fc_edst.(e) and k = fc.fc_ekind.(e) in
            let moved =
              if k < 0 then values else VS.filter (passes_cast st.app.hierarchy fc.fc_cast_names.(k)) values
            in
            add dst moved
          done
      | _ -> ())

let propagate st =
  st.rule <- "flow";
  flow st st.worklist
    (fun node ->
      st.propagations <- st.propagations + 1;
      set_of st node)
    (fun dst moved -> ignore (add_values st dst moved))

let apply_ops st entries ops =
  List.iter
    (fun (op : Graph.op) ->
      List.iter (fun e -> match e.on with Op p when p op.site.o_kind -> apply st (Some op) e | _ -> ()) entries)
    ops

let round st =
  st.dirty <- false;
  let ops = Graph.ops st.graph in
  st.op_applications <- st.op_applications + List.length ops;
  apply_ops st rules ops;
  List.iter (apply st None) round_entries;
  propagate st

(* One round of the taint stratum: the ops' entries, the [Anywhere]
   entries at every location, then taint flow. *)
let taint_round st =
  st.dirty <- false;
  apply_ops st taint_rules (Graph.ops st.graph);
  Hashtbl.iter
    (fun node _ ->
      st.here <- Some node;
      List.iter (apply st None) anywhere_entries)
    st.sets;
  st.here <- None;
  st.rule <- "Taint flow";
  flow st st.tworklist (taint_of st) (add_taint st)

let start config app graph =
  {
    config;
    app;
    graph;
    worklist = Util.Worklist.create ();
    sets = Hashtbl.create 256;
    rels = Array.init 6 (fun _ -> Hashtbl.create 64);
    listeners = Hashtbl.create 32;
    taints = Hashtbl.create 16;
    tainted_views = VS.empty;
    tworklist = Util.Worklist.create ();
    here = None;
    fired = Array.make (List.length names) 0;
    rule = "";
    added = None;
    propagations = 0;
    op_applications = 0;
    dirty = false;
  }

(* Encode the structural fixpoint into the graph's store — every node
   its own representative — interning whatever the solve reached that
   extraction never named (handler parameters injected by value). *)
let encode st =
  let it = Graph.interner st.graph in
  let rows tbl key fold member =
    let row s = fold (fun x b -> ignore (Util.Bitset.add b (member x)); b) s (Util.Bitset.create ()) in
    let keyed = Hashtbl.fold (fun k s acc -> (key k, row s) :: acc) tbl [] in
    let a = Array.make (List.fold_left (fun n (k, _) -> max n (k + 1)) 0 keyed) None in
    List.iter (fun (k, b) -> a.(k) <- Some b) keyed;
    a
  in
  let view v = Intern.view it (Option.get (Node.view_of_value v)) in
  let holder = function
    | Node.V_act a -> Intern.holder it (Node.H_act a)
    | Node.V_obj s -> Intern.holder it (Node.H_dialog s)
    | _ -> invalid_arg "Rules.encode"
  in
  let rid = function Node.V_view_id raw -> Intern.rid it raw | _ -> invalid_arg "Rules.encode" in
  let sol =
    {
      Graph.empty_solution with
      sol_sets = rows st.sets (Intern.node it) VS.fold (Intern.value it);
      sol_children = rows (table st Child) view VS.fold view;
      sol_parents = rows (inverse st Child) view VS.fold view;
      sol_ids = rows (table st Id) view VS.fold rid;
      sol_roots = rows (table st Root) holder VS.fold view;
      sol_listeners = rows st.listeners (Intern.view it) Graph.Listener_set.fold (Intern.listener it);
    }
  in
  (* a tainted node and value are already interned, as a set's *)
  Graph.set_solution st.graph { sol with sol_taints = rows st.taints (Intern.node it) VS.fold (Intern.value it) }

type run = { iterations : int; propagations : int; op_applications : int }

let run config app graph =
  let st = start config app graph in
  List.iter (fun (n, values) -> ignore (add_values st n values)) (Graph.seeds graph);
  propagate st;
  let rec loop i =
    if i < config.Config.max_iterations then (round st; if st.dirty then loop (i + 1) else i + 1) else i
  in
  let iterations = loop 0 in
  if st.dirty || iterations = 0 then
    Logs.warn (fun m -> m "solver hit the iteration cap (%d); result may be partial" iterations);
  if Graph.has_top graph then
    while
      taint_round st;
      st.dirty
    do
      ()
    done;
  encode st;
  { iterations; propagations = st.propagations; op_applications = st.op_applications }

(* Load the installed solution, apply one round, report what grew. *)
let step config app graph =
  let st = start config app graph in
  let it = Graph.interner graph and sol = Graph.solution graph in
  let load rows key member add =
    Array.iteri (fun k -> Option.iter (Util.Bitset.iter (fun x -> add (key k) (member x)))) rows
  in
  let view w = Node.V_view (Intern.view_of it w) in
  let holder h =
    match Intern.holder_of it h with Node.H_act a -> Node.V_act a | Node.H_dialog s -> Node.V_obj s
  in
  for nid = 0 to Intern.node_count it - 1 do
    let node = Intern.node_of it nid in
    let values b = VS.of_list (List.map (Intern.value_of it) (Util.Bitset.elements b)) in
    Option.iter (fun b -> ignore (add_values st node (values b))) (Graph.points_to_row sol nid);
    Option.iter (fun b -> add_taint st node (values b)) (Graph.row sol.sol_taints nid)
  done;
  load sol.sol_children view view (relate st Child);
  load sol.sol_ids view (fun s -> Node.V_view_id (Intern.rid_of it s)) (relate st Id);
  load sol.sol_roots holder view (relate st Root);
  load sol.sol_listeners (Intern.view_of it) (Intern.listener_of it) (fun v l ->
      ignore (add_to (module Graph.Listener_set) st.listeners v l));
  st.added <- Some [];
  (* The memo hands a subtree's facts out on its first instantiation
     only, so the round cannot re-derive them: relate every entry's. *)
  st.rule <- "Inflate (memo)";
  let package = st.app.package in
  List.iter
    (fun (_, layout, views) ->
      Option.iter
        (fun def -> relate_facts st (Inflate.facts ~resources:(Layouts.Package.resources package) def views))
        (Layouts.Package.find package layout))
    (Graph.inflation_entries graph);
  round st;
  if Graph.has_top graph then taint_round st;
  (List.rev (Option.get st.added), List.mapi (fun i name -> (name, st.fired.(i))) names)
