(* The one decoder of a solve's rows ([Graph.solution]) into
   structural answers: a row's ids through the interner, then a sort. *)

let decode of_id compare = function
  | None -> []
  | Some b -> List.sort compare (Util.Bitset.fold (fun id acc -> of_id id :: acc) b [])

let values it = decode (Intern.value_of it) Node.compare_value

let views it = decode (Intern.view_of it) Node.compare_view

let registrations it =
  decode (Intern.listener_of it) (fun (l1, i1) (l2, i2) ->
      match Node.compare_listener l1 l2 with 0 -> String.compare i1 i2 | c -> c)

(* [key]'s row of [rows], decoded by [dec]; an unknown key reads empty. *)
let keyed find rows dec g key =
  let it = Graph.interner g in
  dec it (match find it key with Some i -> Graph.row (rows (Graph.solution g)) i | None -> None)

(* Batch reads come in bulk right after a solve, and a per-read decode
   measured 1.5-2.5x the latency of a table decoded moments before
   (perfbench paper and modes), so the first one decodes every row into
   an array made with an immediate element (a young one forces a minor
   collection), one slot per interned node: the row store's doubled
   tail holds no row. *)
let build_index g =
  let it = Graph.interner g and sets = (Graph.solution g).Graph.sol_sets in
  let index = Array.make (min (Array.length sets) (Intern.node_count it)) [] in
  Array.iteri (fun r _ -> if Option.is_some sets.(r) then index.(r) <- values it sets.(r)) index;
  index

let points_to g node =
  match Intern.find_node (Graph.interner g) node with
  | None -> []
  | Some nid ->
      let index = Graph.read_index g ~build:build_index in
      let r = Graph.rep (Graph.solution g) nid in
      if r < Array.length index then index.(r) else []

let find_points_to g node =
  let it = Graph.interner g in
  match Intern.find_node it node with
  | Some nid -> Some (values it (Graph.points_to_row (Graph.solution g) nid))
  | None -> None

let views_at g node =
  List.fold_left
    (fun acc v -> match Node.view_of_value v with Some view -> view :: acc | None -> acc)
    [] (points_to g node)

let taints = keyed Intern.find_node (fun sol -> sol.Graph.sol_taints) values

let tainted_nodes g =
  let it = Graph.interner g and rows = (Graph.solution g).Graph.sol_taints in
  List.map (fun nid -> (Intern.node_of it nid, values it rows.(nid))) (Graph.keys rows)

let children = keyed Intern.find_view (fun sol -> sol.Graph.sol_children) views

let ids = keyed Intern.find_view (fun sol -> sol.Graph.sol_ids) (fun it -> decode (Intern.rid_of it) Int.compare)

let listeners = keyed Intern.find_view (fun sol -> sol.Graph.sol_listeners) registrations

let roots = keyed Intern.find_holder (fun sol -> sol.Graph.sol_roots) views

let holder_views g holder =
  let it = Graph.interner g in
  match Intern.find_holder it holder with
  | Some hid -> views it (Some (Graph.holder_views (Graph.solution g) hid))
  | None -> []

(* A view whose id came from [SetId (v, ⊤)] carries the sentinel: its
   concrete id is unknown, so it matches every name, declared or not. *)
let id_carriers ?by_id g package name =
  let it = Graph.interner g in
  let declared = Layouts.Resource.find_view_id (Layouts.Package.resources package) name in
  let syms = List.filter_map (Intern.rid_opt it) (Node.top_view_id_raw :: Option.to_list declared) in
  let carriers = Util.Bitset.create () in
  match by_id with
  | Some rows -> (
      match List.filter_map (Graph.row rows) syms with
      | [ b ] -> b
      | bs ->
          List.iter (fun b -> Util.Bitset.union_delta ~into:carriers b ~on_new:ignore) bs;
          carriers)
  | None ->
      let carry wid b = if List.exists (Util.Bitset.mem b) syms then ignore (Util.Bitset.add carriers wid) in
      let rows = (Graph.solution g).Graph.sol_ids in
      for wid = 0 to min (Array.length rows) (Intern.view_count it) - 1 do
        Option.iter (carry wid) rows.(wid)
      done;
      carriers

let views_with_listener g l =
  let it = Graph.interner g and rows = (Graph.solution g).Graph.sol_listeners in
  let entries = Util.Bitset.create () and acc = ref [] in
  for eid = 0 to Intern.listener_count it - 1 do
    if Node.equal_listener (fst (Intern.listener_of it eid)) l then ignore (Util.Bitset.add entries eid)
  done;
  for wid = Intern.view_count it - 1 downto 0 do
    match Graph.row rows wid with Some b when Util.Bitset.intersects b entries -> acc := Intern.view_of it wid :: !acc | _ -> ()
  done;
  List.sort Node.compare_view !acc

(* Locations as ellipses, ops as boxes, views as gray boxes. *)
let pp_dot ppf g =
  let location_id node = Fmt.str "%S" (Fmt.str "%a" Node.pp node) in
  let view_id view = Fmt.str "%S" (Fmt.str "%a" Node.pp_view view) in
  Fmt.pf ppf "digraph constraint_graph {@\n  rankdir=LR;@\n";
  List.iter (fun node -> Fmt.pf ppf "  %s [shape=ellipse];@\n" (location_id node)) (Graph.locations g);
  List.iter
    (fun (op : Graph.op) ->
      let op_node = Fmt.str "%S" (Fmt.str "%a" Node.pp_op_site op.site) in
      Fmt.pf ppf "  %s [shape=box,style=bold];@\n" op_node;
      Fmt.pf ppf "  %s -> %s [label=recv];@\n" (location_id op.op_recv) op_node;
      List.iteri (fun i arg -> Fmt.pf ppf "  %s -> %s [label=\"arg%d\"];@\n" (location_id arg) op_node i) op.op_args;
      Option.iter (fun out -> Fmt.pf ppf "  %s -> %s;@\n" op_node (location_id out)) op.op_out)
    (Graph.ops g);
  (* flow edges by ascending source id, then relation rows by ascending key id *)
  let it = Graph.interner g and sol = Graph.solution g in
  for id = 0 to Intern.node_count it - 1 do
    let src = Intern.node_of it id in
    List.iter
      (fun (k, dst) ->
        match (k : Graph.edge_kind) with
        | E_direct -> Fmt.pf ppf "  %s -> %s;@\n" (location_id src) (location_id dst)
        | E_cast c -> Fmt.pf ppf "  %s -> %s [label=\"(%s)\"];@\n" (location_id src) (location_id dst) c)
      (Graph.succs g src)
  done;
  let keys rows = List.map (Intern.view_of it) (Graph.keys rows) in
  let each ks read edge = List.iter (fun key -> List.iter (edge key) (read g key)) ks in
  each (keys sol.Graph.sol_children) children (fun view child ->
      Fmt.pf ppf "  %s -> %s [style=dashed,label=child];@\n" (view_id view) (view_id child));
  each (keys sol.Graph.sol_ids) ids (fun view id ->
      Fmt.pf ppf "  %s -> \"id:0x%x\" [style=dashed];@\n" (view_id view) id);
  each (Graph.holders g) roots (fun holder root ->
      Fmt.pf ppf "  \"%a\" -> %s [style=dashed,label=root];@\n" Node.pp_holder holder (view_id root));
  each (Graph.views_with_listeners g) listeners (fun view (l, iface) ->
      Fmt.pf ppf "  %s -> \"%a\" [style=dashed,label=\"listener:%s\"];@\n" (view_id view) Node.pp_listener l iface);
  Fmt.pf ppf "}@\n"
