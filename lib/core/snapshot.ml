(* Persistence of solved state (incremental re-analysis across
   processes).  A snapshot is a versioned JSON document: the interner
   pools in id order, the frozen flow CSR, per-representative solution
   bitsets, relation rows, dynamic return dependencies and per-op write
   targets, plus the captured graph's inflation memo and taint rows.
   Each pool is written at its size at capture, so a later warm solve
   over the same interner cannot change a captured solve's file.
   Loading installs the rows as the graph's solution store as they
   are, with no decoding.  Replaying
   the value pool in id order recreates the value AND view pools
   exactly — interning a value and its paired view is atomic with
   respect to other interns, so the relative order of view allocations
   equals the relative order of their paired values. *)

module J = Util.Json

let magic = "GATOR-SNAP"

(* Version 2 adds the unknown-resource-id markers ([lidtop]/[vidtop]
   value tags) and the optional [taints] rows.  Version-1 snapshots —
   written before the markers existed — decode unchanged: they cannot
   contain the new tags, and a missing [taints] field means no node is
   tainted.  Version 3 drops the [onclicks], [declared_fragments] and
   [root_layouts] tables: handlers and fragment classes are read from
   the layouts, and no reader needs a root's layout id.  The reader
   skips those fields in older files. *)
let version = 3

let min_version = 1

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* ------------------------------------------------------------------ *)
(* Structural encoders *)

let jmid (m : Node.mid) = J.List [ J.String m.mid_cls; J.String m.mid_name; J.Int m.mid_arity ]

let jsite (s : Node.site) = J.List [ jmid s.s_in; J.Int s.s_stmt ]

let jalloc (a : Node.alloc_site) = J.List [ jsite a.a_site; J.String a.a_cls ]

let jinfl (i : Node.infl_site) =
  J.List
    [
      jsite i.v_site;
      J.String i.v_layout;
      J.List (List.map (fun p -> J.Int p) i.v_path);
      J.String i.v_cls;
      (match i.v_vid with None -> J.Null | Some v -> J.String v);
    ]

let jview = function
  | Node.V_infl i -> J.List [ J.String "i"; jinfl i ]
  | Node.V_alloc a -> J.List [ J.String "a"; jalloc a ]

let jvalue = function
  | Node.V_view w -> J.List [ J.String "view"; jview w ]
  | Node.V_act a -> J.List [ J.String "act"; J.String a ]
  | Node.V_obj a -> J.List [ J.String "obj"; jalloc a ]
  | Node.V_layout_id n -> J.List [ J.String "lid"; J.Int n ]
  | Node.V_view_id n -> J.List [ J.String "vid"; J.Int n ]
  | Node.V_layout_top -> J.List [ J.String "lidtop" ]
  | Node.V_view_id_top -> J.List [ J.String "vidtop" ]

let jnode = function
  | Node.N_var (m, v) -> J.List [ J.String "var"; jmid m; J.String v ]
  | Node.N_field f -> J.List [ J.String "field"; J.String f ]
  | Node.N_ret m -> J.List [ J.String "ret"; jmid m ]

let jlistener_entry (l, iface) =
  let jl =
    match l with
    | Node.L_alloc a -> J.List [ J.String "alloc"; jalloc a ]
    | Node.L_act a -> J.List [ J.String "act"; J.String a ]
  in
  J.List [ jl; J.String iface ]

let jholder = function
  | Node.H_act a -> J.List [ J.String "act"; J.String a ]
  | Node.H_dialog d -> J.List [ J.String "dialog"; jalloc d ]

let jkind = function
  | Framework.Api.Inflate -> J.String "inflate"
  | Framework.Api.Set_content -> J.String "set_content"
  | Framework.Api.Add_view -> J.String "add_view"
  | Framework.Api.Set_id -> J.String "set_id"
  | Framework.Api.Set_listener iface ->
      J.List [ J.String "set_listener"; J.String iface.Framework.Listeners.i_name ]
  | Framework.Api.Find_view -> J.String "find_view"
  | Framework.Api.Find_one Framework.Api.Children -> J.String "find_one_children"
  | Framework.Api.Find_one Framework.Api.Descendants -> J.String "find_one_descendants"
  | Framework.Api.Get_parent -> J.String "get_parent"
  | Framework.Api.Start_activity -> J.String "start_activity"
  | Framework.Api.Pass_through -> J.String "pass_through"
  | Framework.Api.Fragment_add -> J.String "fragment_add"
  | Framework.Api.Menu_add -> J.String "menu_add"
  | Framework.Api.Set_adapter -> J.String "set_adapter"

let jop_site (o : Node.op_site) = J.List [ jsite o.o_site; jkind o.o_kind ]

(* Config fields that no longer exist, each with the one value every
   build wrote for it.  The writer still emits them, in their old
   places, so files stay byte-identical across the retirement and
   older builds (which require [jobs] and [incremental]) can still read
   new files.  The reader accepts each one absent or at its value. *)
let retired_fields =
  [
    ("inline_body_limit", J.Int Extract.inline_body_limit);
    ("ctx_keyed", J.Bool true);
    ("jobs", J.Int 8);
    ("incremental", J.Bool false);
    ("shared_intern", J.Bool true);
  ]

let retired name = (name, List.assoc name retired_fields)

let jconfig (c : Config.t) =
  J.Obj
    [
      ("cast_filtering", J.Bool c.cast_filtering);
      ("findone_refinement", J.Bool c.findone_refinement);
      ("listener_callbacks", J.Bool c.listener_callbacks);
      ("model_dialogs", J.Bool c.model_dialogs);
      ("inline_depth", J.Int c.inline_depth);
      retired "inline_body_limit";
      retired "ctx_keyed";
      ("max_iterations", J.Int c.max_iterations);
      ("solver", J.String "interned");
      retired "jobs";
      retired "incremental";
      retired "shared_intern";
    ]

let jints a = J.List (Array.to_list (Array.map (fun i -> J.Int i) a))

let jstrings a = J.List (Array.to_list (Array.map (fun s -> J.String s) a))

let jbitset b = J.List (List.map (fun i -> J.Int i) (Util.Bitset.elements b))

let jrows rows =
  J.List
    (List.filter_map Fun.id
       (Array.to_list
          (Array.mapi
             (fun i o ->
               match o with Some b -> Some (J.List [ J.Int i; jbitset b ]) | None -> None)
             rows)))

let jpairs a = J.List (Array.to_list (Array.map (fun (x, y) -> J.List [ J.Int x; J.Int y ]) a))

let to_json (sd : Solve.solved) =
  let it = Solve.solved_interner sd and sol = sd.Solve.sd_solution and sh = sd.Solve.sd_shape in
  J.Obj
    [
      ("magic", J.String magic);
      ("version", J.Int version);
      ("config", jconfig sd.sd_config);
      ("app_name", J.String sd.sd_app_name);
      ("class_fp", J.String sd.sd_class_fp);
      ("method_fp", J.String sd.sd_method_fp);
      ("layout_fp", J.String sd.sd_layout_fp);
      ("values", J.List (List.init sd.sd_value_total (fun i -> jvalue (Intern.value_of it i))));
      ("nodes", J.List (List.init sd.sd_node_total (fun i -> jnode (Intern.node_of it i))));
      ( "pool_listeners",
        J.List (List.init sd.sd_listener_total (fun i -> jlistener_entry (Intern.listener_of it i)))
      );
      ("pool_holders", J.List (List.init sd.sd_holder_total (fun i -> jholder (Intern.holder_of it i))));
      ("rids", J.List (List.init sd.sd_rid_total (fun i -> J.Int (Intern.rid_of it i))));
      ("node_total", J.Int sd.sd_node_total);
      ("value_total", J.Int sd.sd_value_total);
      ("csr_n", J.Int sh.sh_nodes);
      ("nrep", jints sol.sol_rep);
      ("row", jints sh.sh_row);
      ("edst", jints sh.sh_edst);
      ("ekind", jints sh.sh_ekind);
      ("cast_names", jstrings sh.sh_cast_names);
      ("seeds", jpairs sh.sh_seeds);
      ( "ops",
        J.List
          (Array.to_list
             (Array.map
                (fun (site, recv, args, out) ->
                  J.List [ jop_site site; J.Int recv; jints args; J.Int out ])
                sh.sh_ops)) );
      ("sols", jrows sol.sol_sets);
      ("children", jrows sol.sol_children);
      ("parents", jrows sol.sol_parents);
      ("ids", jrows sol.sol_ids);
      ("by_id", jrows sd.sd_by_id);
      ("roots", jrows sol.sol_roots);
      ("listeners", jrows sol.sol_listeners);
      ("holder_ids", J.List (List.map (fun i -> J.Int i) sd.sd_holder_ids));
      ( "ret_deps",
        J.List
          (List.map
             (fun (r, rd) ->
               J.List [ J.Int r; J.Int (match rd with Solve.RD_op i -> i | Solve.RD_frags -> -1) ])
             sd.sd_ret_deps) );
      ("targets", J.List (Array.to_list (Array.map jbitset sd.sd_targets)));
      ( "inflations",
        J.List
          (List.map
             (fun (site, layout, views) ->
               J.List [ jsite site; J.String layout; J.List (List.map jview views) ])
             (Graph.inflation_entries sd.sd_graph)) );
      ( "taints",
        J.List
          (List.map
             (fun (node, vs) -> J.List [ jnode node; J.List (List.map jvalue vs) ])
             (Reader.tainted_nodes sd.sd_graph)) );
    ]

(* ------------------------------------------------------------------ *)
(* Structural decoders (exception-based; [of_json] catches [Bad]) *)

let dstr = function J.String s -> s | _ -> bad "expected string"

let dint = function J.Int n -> n | _ -> bad "expected int"

let dlist = function J.List l -> l | _ -> bad "expected list"

let dfield name j = match J.member name j with Some v -> v | None -> bad "missing field %s" name

let dmid = function
  | J.List [ c; n; a ] -> { Node.mid_cls = dstr c; mid_name = dstr n; mid_arity = dint a }
  | _ -> bad "bad mid"

let dsite = function
  | J.List [ m; s ] -> { Node.s_in = dmid m; s_stmt = dint s }
  | _ -> bad "bad site"

let dalloc = function
  | J.List [ s; c ] -> { Node.a_site = dsite s; a_cls = dstr c }
  | _ -> bad "bad alloc site"

let dinfl = function
  | J.List [ s; layout; path; cls; vid ] ->
      {
        Node.v_site = dsite s;
        v_layout = dstr layout;
        v_path = List.map dint (dlist path);
        v_cls = dstr cls;
        v_vid = (match vid with J.Null -> None | v -> Some (dstr v));
      }
  | _ -> bad "bad inflation site"

let dview = function
  | J.List [ J.String "i"; i ] -> Node.V_infl (dinfl i)
  | J.List [ J.String "a"; a ] -> Node.V_alloc (dalloc a)
  | _ -> bad "bad view"

let dvalue = function
  | J.List [ J.String "view"; w ] -> Node.V_view (dview w)
  | J.List [ J.String "act"; a ] -> Node.V_act (dstr a)
  | J.List [ J.String "obj"; a ] -> Node.V_obj (dalloc a)
  | J.List [ J.String "lid"; n ] -> Node.V_layout_id (dint n)
  | J.List [ J.String "vid"; n ] -> Node.V_view_id (dint n)
  | J.List [ J.String "lidtop" ] -> Node.V_layout_top
  | J.List [ J.String "vidtop" ] -> Node.V_view_id_top
  | _ -> bad "bad value"

let dnode = function
  | J.List [ J.String "var"; m; v ] -> Node.N_var (dmid m, dstr v)
  | J.List [ J.String "field"; f ] -> Node.N_field (dstr f)
  | J.List [ J.String "ret"; m ] -> Node.N_ret (dmid m)
  | _ -> bad "bad node"

let dlistener_entry = function
  | J.List [ l; iface ] ->
      let l =
        match l with
        | J.List [ J.String "alloc"; a ] -> Node.L_alloc (dalloc a)
        | J.List [ J.String "act"; a ] -> Node.L_act (dstr a)
        | _ -> bad "bad listener"
      in
      (l, dstr iface)
  | _ -> bad "bad listener entry"

let dholder = function
  | J.List [ J.String "act"; a ] -> Node.H_act (dstr a)
  | J.List [ J.String "dialog"; d ] -> Node.H_dialog (dalloc d)
  | _ -> bad "bad holder"

let dkind = function
  | J.String "inflate" -> Framework.Api.Inflate
  | J.String "set_content" -> Framework.Api.Set_content
  | J.String "add_view" -> Framework.Api.Add_view
  | J.String "set_id" -> Framework.Api.Set_id
  | J.List [ J.String "set_listener"; J.String name ] -> (
      match Framework.Listeners.by_name name with
      | Some iface -> Framework.Api.Set_listener iface
      | None -> bad "unknown listener interface %s" name)
  | J.String "find_view" -> Framework.Api.Find_view
  | J.String "find_one_children" -> Framework.Api.Find_one Framework.Api.Children
  | J.String "find_one_descendants" -> Framework.Api.Find_one Framework.Api.Descendants
  | J.String "get_parent" -> Framework.Api.Get_parent
  | J.String "start_activity" -> Framework.Api.Start_activity
  | J.String "pass_through" -> Framework.Api.Pass_through
  | J.String "fragment_add" -> Framework.Api.Fragment_add
  | J.String "menu_add" -> Framework.Api.Menu_add
  | J.String "set_adapter" -> Framework.Api.Set_adapter
  | _ -> bad "bad op kind"

let dop_site = function
  | J.List [ s; k ] -> { Node.o_site = dsite s; o_kind = dkind k }
  | _ -> bad "bad op site"

let dconfig j =
  let bool_field name = match dfield name j with J.Bool b -> b | _ -> bad "bad %s" name in
  List.iter
    (fun (name, value) ->
      match J.member name j with
      | None -> ()
      | Some v when v = value -> ()
      | Some v ->
          bad "retired config field %s must be %s, not %s" name (J.to_string value)
            (J.to_string v))
    retired_fields;
  (* every capture ran the interned engine; a file written while the
     solver was selectable may still name the rule-table reference *)
  (match dstr (dfield "solver" j) with "naive" | "interned" -> () | s -> bad "unknown solver %s" s);
  {
    Config.cast_filtering = bool_field "cast_filtering";
    findone_refinement = bool_field "findone_refinement";
    listener_callbacks = bool_field "listener_callbacks";
    model_dialogs = bool_field "model_dialogs";
    inline_depth = dint (dfield "inline_depth" j);
    max_iterations = dint (dfield "max_iterations" j);
  }

let dints j = Array.of_list (List.map dint (dlist j))

let dstrings j = Array.of_list (List.map dstr (dlist j))

(* A pool id read from the file: [what] names the field, [pool] the
   size of the pool it must index.  Bitsets and row arrays are sized by
   the largest id they hold, so an unchecked id could demand any amount
   of memory. *)
let did ~what ~pool j =
  let i = dint j in
  if i < 0 || i >= pool then bad "%s: id %d out of range (pool size %d)" what i pool;
  i

(* A size read from the file, which must lie in [0, max]. *)
let dsize what ~max j =
  let n = dint j in
  if n < 0 || n > max then bad "%s: %d out of range [0, %d]" what n max;
  n

(* The frozen flow CSR: [row] holds [csr_n + 1] non-decreasing offsets
   from 0 to [|edst|], every destination is a CSR node, and every kind
   is direct ([-1]) or the index of a cast name. *)
let check_csr ~csr_n ~row ~edst ~ekind ~casts =
  let edges = Array.length edst in
  if Array.length row <> csr_n + 1 then
    bad "row: %d offsets for %d nodes" (Array.length row) csr_n;
  if row.(0) <> 0 || row.(csr_n) <> edges then bad "row: offsets must run from 0 to %d" edges;
  for i = 1 to csr_n do
    if row.(i) < row.(i - 1) then bad "row: offset %d decreases" i
  done;
  if Array.length ekind <> edges then bad "ekind: %d kinds for %d edges" (Array.length ekind) edges;
  Array.iter (fun d -> if d < 0 || d >= csr_n then bad "edst: node %d out of range" d) edst;
  Array.iter (fun k -> if k < -1 || k >= casts then bad "ekind: kind %d out of range" k) ekind

let dbitset ~what ~members j =
  let b = Util.Bitset.create () in
  List.iter (fun i -> ignore (Util.Bitset.add b (did ~what ~pool:members i))) (dlist j);
  b

(* Relation rows [[row id, members]]: row ids index the [rows] pool,
   members the [members] pool. *)
let drows ~what ?(size = 0) ~rows ~members j =
  let decode = function
    | J.List [ i; b ] -> (did ~what ~pool:rows i, dbitset ~what ~members b)
    | _ -> bad "bad row"
  in
  let decoded = List.map decode (dlist j) in
  let n = List.fold_left (fun acc (i, _) -> max acc (i + 1)) size decoded in
  let a = Array.make n None in
  List.iter (fun (i, b) -> a.(i) <- Some b) decoded;
  a

let dpairs j =
  Array.of_list
    (List.map (function J.List [ x; y ] -> (dint x, dint y) | _ -> bad "bad pair") (dlist j))

let of_json j =
  try
    (match dfield "magic" j with
    | J.String m when m = magic -> ()
    | _ -> bad "not a snapshot (bad magic)");
    (match dint (dfield "version" j) with
    | v when v >= min_version && v <= version -> ()
    | v -> bad "unsupported snapshot version %d (expected %d..%d)" v min_version version);
    let config = dconfig (dfield "config" j) in
    let it = Intern.create () in
    (* Pool replay: ids are assigned densely in replay order, so each
       entry must come back with exactly the id it was serialized
       under. *)
    List.iteri
      (fun i v -> if Intern.value it (dvalue v) <> i then bad "value pool replay diverged at %d" i)
      (dlist (dfield "values" j));
    List.iteri
      (fun i n -> if Intern.node it (dnode n) <> i then bad "node pool replay diverged at %d" i)
      (dlist (dfield "nodes" j));
    List.iteri
      (fun i l ->
        if Intern.listener it (dlistener_entry l) <> i then
          bad "listener pool replay diverged at %d" i)
      (dlist (dfield "pool_listeners" j));
    List.iteri
      (fun i h -> if Intern.holder it (dholder h) <> i then bad "holder pool replay diverged at %d" i)
      (dlist (dfield "pool_holders" j));
    List.iteri
      (fun i r -> if Intern.rid it (dint r) <> i then bad "rid pool replay diverged at %d" i)
      (dlist (dfield "rids" j));
    let nodes = Intern.node_count it and values = Intern.value_count it in
    let views = Intern.view_count it and rids = Intern.rid_count it in
    (* The totals were taken at capture; a donor interner may have
       grown since, so the pools can be larger but never smaller. *)
    let node_total = dsize "node_total" ~max:nodes (dfield "node_total" j) in
    let value_total = dsize "value_total" ~max:values (dfield "value_total" j) in
    let csr_n = dsize "csr_n" ~max:node_total (dfield "csr_n" j) in
    let nrep = Array.of_list (List.map (did ~what:"nrep" ~pool:csr_n) (dlist (dfield "nrep" j))) in
    if Array.length nrep <> csr_n then bad "nrep size mismatch";
    let row = dints (dfield "row" j) and edst = dints (dfield "edst" j) in
    let ekind = dints (dfield "ekind" j) and cast_names = dstrings (dfield "cast_names" j) in
    check_csr ~csr_n ~row ~edst ~ekind ~casts:(Array.length cast_names);
    let rows ?size what ~rows ~members = drows ~what ?size ~rows ~members (dfield what j) in
    let sols = rows ~size:node_total "sols" ~rows:nodes ~members:values in
    let by_id = rows "by_id" ~rows:rids ~members:views in
    (* The captured graph: the inflation memo, the seeds, and the rows
       above as its solution store. *)
    let graph = Graph.create ~interner:it () in
    List.iter
      (function
        | J.List [ s; layout; views ] ->
            Graph.record_inflation graph ~site:(dsite s) ~layout:(dstr layout)
              (List.map dview (dlist views))
        | _ -> bad "bad inflation entry")
      (dlist (dfield "inflations" j));
    (* Optional: absent in version-1 snapshots (nothing was tainted).
       Rows name structural nodes and values, each of which must be in
       the captured pools. *)
    let captured what find ~total x =
      match find it x with
      | Some id when id < total -> id
      | _ -> bad "taints: %s not in the captured pool" what
    in
    let taints = Array.make node_total None in
    List.iter
      (function
        | J.List [ n; vs ] ->
            let nid = captured "node" Intern.find_node ~total:node_total (dnode n) in
            let b = Option.value taints.(nid) ~default:(Util.Bitset.create ()) in
            List.iter
              (fun v ->
                ignore
                  (Util.Bitset.add b (captured "value" Intern.find_value ~total:value_total (dvalue v))))
              (dlist vs);
            taints.(nid) <- Some b
        | _ -> bad "bad taint entry")
      (match J.member "taints" j with Some rows -> dlist rows | None -> []);
    let solution =
      {
        Graph.sol_rep = nrep;
        sol_sets = sols;
        sol_children = rows "children" ~rows:views ~members:views;
        sol_parents = rows "parents" ~rows:views ~members:views;
        sol_ids = rows "ids" ~rows:views ~members:rids;
        sol_roots = rows "roots" ~rows:(Intern.holder_count it) ~members:views;
        sol_listeners = rows "listeners" ~rows:views ~members:(Intern.listener_count it);
        sol_taints = taints;
      }
    in
    Graph.set_solution graph solution;
    (* Replay the seed pairs into the graph: the captured graph
       carried them, and [Graph.has_top] — which the warm guard and the
       taint stratum key on — is reconstituted as a side effect. *)
    let seeds = dpairs (dfield "seeds" j) in
    Array.iter
      (fun (nid, vid) -> Graph.seed graph (Intern.node_of it nid) (Intern.value_of it vid))
      seeds;
    Ok
      {
        Solve.sd_config = config;
        sd_app_name = dstr (dfield "app_name" j);
        sd_class_fp = dstr (dfield "class_fp" j);
        sd_method_fp = dstr (dfield "method_fp" j);
        sd_layout_fp = dstr (dfield "layout_fp" j);
        (* a fresh empty package: physically distinct from any app's,
           so the warm guard always decides by layout fingerprint *)
        sd_package = Layouts.Package.create ();
        sd_graph = graph;
        sd_node_total = node_total;
        sd_value_total = value_total;
        sd_listener_total = Intern.listener_count it;
        sd_holder_total = Intern.holder_count it;
        sd_rid_total = rids;
        sd_shape =
          {
            Solve.sh_nodes = csr_n;
            sh_row = row;
            sh_edst = edst;
            sh_ekind = ekind;
            sh_cast_names = cast_names;
            sh_seeds = seeds;
            sh_ops =
              Array.of_list
                (List.map
                   (function
                     | J.List [ site; recv; args; out ] ->
                         (dop_site site, dint recv, dints args, dint out)
                     | _ -> bad "bad op")
                   (dlist (dfield "ops" j)));
          };
        sd_solution = solution;
        (* counted once here; warm solves carry the counts forward *)
        sd_sets = Array.fold_left (fun n o -> if Option.is_some o then n + 1 else n) 0 sols;
        sd_words =
          Array.fold_left (fun n o -> match o with Some b -> n + Util.Bitset.words b | None -> n) 0 sols;
        sd_by_id = by_id;
        sd_holder_ids =
          List.map
            (did ~what:"holder_ids" ~pool:(Intern.holder_count it))
            (dlist (dfield "holder_ids" j));
        sd_ret_deps =
          List.map
            (function
              | J.List [ r; rd ] ->
                  (dint r, if dint rd < 0 then Solve.RD_frags else Solve.RD_op (dint rd))
              | _ -> bad "bad return dependency")
            (dlist (dfield "ret_deps" j));
        sd_targets =
          Array.of_list
            (List.map (dbitset ~what:"targets" ~members:nodes) (dlist (dfield "targets" j)));
      }
  with
  | Bad msg -> Error msg
  | Invalid_argument msg -> Error ("malformed snapshot: " ^ msg)

let save sd path =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (J.to_string (to_json sd)))

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match J.of_string contents with
      | Error msg -> Error ("snapshot is not valid JSON: " ^ msg)
      | Ok j -> of_json j)
