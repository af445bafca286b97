let var mid name = Node.N_var (mid, name)

(* An integer constant that happens to be a registered resource id is
   treated as that id, modeling constant propagation of the inlined
   [R] fields real compilers perform. *)
let value_of_int resources n =
  if Layouts.Resource.is_layout_id n && Layouts.Resource.layout_name resources n <> None then
    Some (Node.V_layout_id n)
  else if Layouts.Resource.is_view_id n && Layouts.Resource.view_name resources n <> None then
    Some (Node.V_view_id n)
  else None

(* Clone suffixes ("$1", "$2", ...) are minted once per clone but the
   strings themselves recur across every context-sensitive extraction;
   the table covers all realistic clone counts so the hot path is an
   array read instead of a [Printf] format interpretation. *)
let suffix_table = Array.init 1024 (fun i -> "$" ^ string_of_int i)

let clone_suffix n = if n < 1024 then suffix_table.(n) else "$" ^ string_of_int n

type ctx = {
  depth : int;  (** current inlining depth *)
  rename : string -> string;  (** variable renaming for the current clone *)
  ret_target : Node.t;  (** where [return x] flows *)
  stack : Node.mid list;  (** methods on the inline chain, for cycle avoidance *)
  clones : int ref;
      (** clone ids unique within one extraction run; per-run (not
          global) so concurrent extractions on separate domains cannot
          interleave names *)
}

let top_ctx ~clones mid =
  { depth = 0; rename = Fun.id; ret_target = Node.N_ret mid; stack = [ mid ]; clones }

(* '$' cannot occur in source identifiers, so renamed variables never
   collide with real ones. *)
let fresh_clone_suffix ctx =
  incr ctx.clones;
  clone_suffix !(ctx.clones)

(* CHA facts at a call site, shared verbatim by the structural and
   context-keyed walks (the inlining guard MUST be the same predicate
   in both, or the clone numbering diverges and the bit-identity
   oracle breaks).

   The hierarchy-dependent half — dispatch targets and platform
   reachability — is a pure function of (receiver type, name, arity)
   for a fixed app, so it is memoised per extraction run ([cha]).
   Every consumer hits the same sites repeatedly: typing resolves each
   call's return type on every inference round, the structural inliner
   re-walks callee bodies once per clone, and template builds
   re-resolve the sites the top-level walk already saw.  Typing needs
   only the targets, so platform reachability (a subtype scan) is
   filled in by the first call-site lookup.  Only the depth/stack-
   dependent guard tail stays live. *)
type cha_facts = {
  targets : (string * Jir.Ast.meth) list;
  mutable may_reach_platform : bool option;
}

(* A call signature: receiver type ([None] = untyped, which CHA
   resolves to every method of the key), name and arity. *)
module Cha_key = struct
  type t = string option * string * int

  let equal (r1, n1, a1) (r2, n2, a2) =
    Int.equal a1 a2 && String.equal n1 n2 && Option.equal String.equal r1 r2

  let hash (r, n, a) =
    let hr = match r with None -> 0 | Some r -> Node.hash_string r in
    Node.mix (Node.mix hr (Node.hash_string n)) a
end

module Cha_memo = Hashtbl.Make (Cha_key)

module Mid_tbl = Hashtbl.Make (struct
  type t = Node.mid

  let equal a b = Node.compare_mid a b = 0

  let hash = Node.hash_mid
end)

(* Per-run caches shared by the structural walk, the inliner and the
   template compiler: CHA facts per call signature, and typing
   environments per method (the inliner re-derives the callee env once
   per clone; templates would re-derive it once per build). *)
type ex_memo = {
  cha : cha_facts Cha_memo.t;
  envs : Jir.Typing.env Mid_tbl.t;
}

let fresh_memo () = { cha = Cha_memo.create 256; envs = Mid_tbl.create 256 }

let cha_facts hierarchy memo recv_ty name arity =
  let ck = (recv_ty, name, arity) in
  match Cha_memo.find_opt memo.cha ck with
  | Some facts -> facts
  | None ->
      let key = { Jir.Ast.mk_name = name; mk_arity = arity } in
      let facts =
        { targets = Jir.Hierarchy.cha_targets hierarchy ~recv_ty key; may_reach_platform = None }
      in
      Cha_memo.add memo.cha ck facts;
      facts

(* Only call sites read a receiver type, so a method's environment is
   built the first time one of its call sites is resolved: methods with
   no call are never typed. *)
let lazy_typing_env (app : Framework.App.t) memo ~mid ~owner (m : Jir.Ast.meth) =
  lazy
    (match Mid_tbl.find_opt memo.envs mid with
    | Some env -> env
    | None ->
        let cha_targets ~recv_ty name arity =
          (cha_facts app.hierarchy memo recv_ty name arity).targets
        in
        let env = Framework.App.typing_env ~cha_targets app ~owner m in
        Mid_tbl.add memo.envs mid env;
        env)

let typing_envs (app : Framework.App.t) =
  let memo = fresh_memo () in
  List.concat_map
    (fun (cls : Jir.Ast.cls) ->
      List.map
        (fun (m : Jir.Ast.meth) ->
          let mid = Node.mid_of_meth cls.c_name m in
          (mid, Lazy.force (lazy_typing_env app memo ~mid ~owner:cls.c_name m)))
        cls.c_methods)
    app.program.p_classes

let inline_body_limit = 24

let call_info config hierarchy ~memo env ~depth ~stack recv name arity =
  let recv_ty = Jir.Typing.class_of (Lazy.force env) recv in
  let facts = cha_facts hierarchy memo recv_ty name arity in
  let app_targets = facts.targets in
  let may_reach_platform =
    match facts.may_reach_platform with
    | Some reach -> reach
    | None ->
        (* A call can reach the platform when the receiver's type is
           unknown, or when some concrete class compatible with it has
           no application definition of the method (dispatch then
           falls through to platform code). *)
        let reach =
          match recv_ty with
          | None -> true
          | Some ty ->
              let key = { Jir.Ast.mk_name = name; mk_arity = arity } in
              (not (Jir.Hierarchy.mem hierarchy ty))
              || List.exists
                   (fun sub ->
                     Jir.Hierarchy.kind hierarchy sub = Some `Class
                     && Jir.Hierarchy.resolve hierarchy sub key = None)
                   (Jir.Hierarchy.subtypes hierarchy ty)
        in
        facts.may_reach_platform <- Some reach;
        reach
  in
  let inlinable =
    config.Config.inline_depth > 0
    && depth < config.Config.inline_depth
    && (not may_reach_platform)
    &&
    match app_targets with
    | [ (owner, target) ] ->
        List.length target.m_body <= inline_body_limit
        && not (List.mem (Node.mid_of_meth owner target) stack)
    | _ -> false
  in
  (app_targets, may_reach_platform, inlinable)

(* Context-keyed clone expansion ([run] at inline depth > 0):
   clone bodies are expanded in id space.  Each inlinable method is
   compiled ONCE per extraction into an id-level template — statements
   resolved to base node ids, CHA facts and the depth-independent part
   of the inlining guard precomputed — and every context then replays
   the template through {!Intern.ctx_node}, which mints exactly the
   [$n]-renamed node the inlining path would build structurally.  A
   replay costs packed-int cache probes instead of structural
   interning, string concatenation, or hierarchy scans.  Statement
   order, clone numbering, and the inlining guard are identical to the
   structural walk below; the two paths must stay in lockstep. *)
type kctx = {
  k_depth : int;  (** current inlining depth (>= 1 inside a clone) *)
  k_clone : int;  (** this clone's number; suffix is ["$" ^ k_clone] *)
  k_ret : int Lazy.t;
      (** id the clone's [return x] flows to; lazy so a result-discarded
          call whose body never returns a value interns no [$ret] node —
          matching the inlining path, which only builds that node when an
          edge touches it *)
  k_stack : Node.mid list;
  k_clones : int ref;
}

(* Template operands are base ids tagged with whether the context
   rename applies: [2*id + 1] for locals of the template's method
   (renamed per clone), [2*id] for fixed structural nodes (fields,
   boundary variables of non-inlined callees). *)
let t_mapped id = (id lsl 1) lor 1
let t_fixed id = id lsl 1

type tinstr =
  | T_alloc of { out : int; cls : string; site : Node.site; is_view : bool }
  | T_edge of { src : int; dst : int; kind : Graph.edge_kind }
  | T_layout_id of { out : int; name : string }
      (** resolved per expansion: the resource tables assign numbers on
          first touch, so resolving at build time would permute the
          numbering relative to the inlining walk *)
  | T_view_id of { out : int; name : string }
  | T_layout_top of { out : int }  (** [R.layout.?] — seeds the ⊤ layout marker *)
  | T_view_top of { out : int }  (** [R.id.?] — seeds the ⊤ view-id marker *)
  | T_const of { out : int; n : int }
      (** [value_of_int] reads the resource tables, so it too must
          evaluate at the point the inlining walk would *)
  | T_ret of { src : int }  (** edge into the expansion's [k_ret] *)
  | T_call of tcall

and tcall = {
  tc_recv : int;
  tc_args : int list;
  tc_out : int option;
  tc_inline : tinline option;
      (** [Some] when the depth-independent guard passes (single CHA
          target, small body, platform-unreachable); the depth bound
          and recursion stack are checked per expansion *)
  tc_fallback : (int * int list * int) list;
      (** per CHA target: structural this / params / [N_ret] ids *)
  tc_op : Framework.Api.kind option;
  tc_site : Node.site;
}

and tinline = {
  ti_tmid : Node.mid;
  ti_owner : string;
  ti_target : Jir.Ast.meth;
  ti_this : int;
  ti_params : int list;
  ti_ret : int Lazy.t;  (** lazy: result-discarded never-returning calls intern no [$ret] *)
}

type tcache = tinstr array Mid_tbl.t

let build_template config (app : Framework.App.t) graph ~memo ~owner (target : Jir.Ast.meth) =
  let mid = Node.mid_of_meth owner target in
  let hierarchy = app.Framework.App.hierarchy in
  let env = lazy_typing_env app memo ~mid ~owner target in
  let mapped name = t_mapped (Graph.node_id graph (var mid name)) in
  let instr index stmt =
    let site () = { Node.s_in = mid; s_stmt = index } in
    match stmt with
    | Jir.Ast.New (x, cls) ->
        [ T_alloc
            { out = mapped x; cls; site = site ();
              is_view = Framework.Views.is_view_class hierarchy cls } ]
    | Jir.Ast.Copy (x, y) -> [ T_edge { src = mapped y; dst = mapped x; kind = Graph.E_direct } ]
    | Jir.Ast.Read_field (x, _, f) ->
        [ T_edge
            { src = t_fixed (Graph.node_id graph (Node.N_field f)); dst = mapped x;
              kind = Graph.E_direct } ]
    | Jir.Ast.Write_field (_, f, y) ->
        [ T_edge
            { src = mapped y; dst = t_fixed (Graph.node_id graph (Node.N_field f));
              kind = Graph.E_direct } ]
    | Jir.Ast.Read_layout_id (x, name) -> [ T_layout_id { out = mapped x; name } ]
    | Jir.Ast.Read_view_id (x, name) -> [ T_view_id { out = mapped x; name } ]
    | Jir.Ast.Read_layout_top x -> [ T_layout_top { out = mapped x } ]
    | Jir.Ast.Read_view_top x -> [ T_view_top { out = mapped x } ]
    | Jir.Ast.Const_int (x, n) -> [ T_const { out = mapped x; n } ]
    | Jir.Ast.Const_null _ -> []
    | Jir.Ast.Cast (x, cls, y) ->
        let kind = if config.Config.cast_filtering then Graph.E_cast cls else Graph.E_direct in
        [ T_edge { src = mapped y; dst = mapped x; kind } ]
    | Jir.Ast.Return (Some x) -> [ T_ret { src = mapped x } ]
    | Jir.Ast.Return None -> []
    | Jir.Ast.Invoke (lhs, recv, name, args) ->
        let arity = List.length args in
        (* depth 0 / empty stack: only the depth-independent part of
           the guard is baked in; the per-expansion parts are checked
           when the template replays *)
        let app_targets, may_reach_platform, deep =
          call_info config hierarchy ~memo env ~depth:0 ~stack:[] recv name arity
        in
        let tc_inline =
          match (deep, app_targets) with
          | true, [ (owner', t') ] ->
              let tmid = Node.mid_of_meth owner' t' in
              Some
                {
                  ti_tmid = tmid;
                  ti_owner = owner';
                  ti_target = t';
                  ti_this = Graph.node_id graph (var tmid Jir.Ast.this_var);
                  ti_params =
                    List.map (fun (p, _) -> Graph.node_id graph (var tmid p)) t'.m_params;
                  ti_ret = lazy (Graph.node_id graph (var tmid "$ret"));
                }
          | _ -> None
        in
        let tc_fallback =
          List.map
            (fun (owner', (t' : Jir.Ast.meth)) ->
              let tmid = Node.mid_of_meth owner' t' in
              ( Graph.node_id graph (var tmid Jir.Ast.this_var),
                List.map (fun (p, _) -> Graph.node_id graph (var tmid p)) t'.m_params,
                Graph.node_id graph (Node.N_ret tmid) ))
            app_targets
        in
        let tc_op = if may_reach_platform then Framework.Api.classify ~name ~arity else None in
        [ T_call
            { tc_recv = mapped recv; tc_args = List.map mapped args;
              tc_out = Option.map mapped lhs; tc_inline; tc_fallback; tc_op; tc_site = site () } ]
  in
  Array.of_list (List.concat (List.mapi instr target.m_body))

let rec expand_template config app graph (tcache : tcache) ~memo ~kctx ~owner
    (target : Jir.Ast.meth) =
  let mid = Node.mid_of_meth owner target in
  let instrs =
    match Mid_tbl.find_opt tcache mid with
    | Some t -> t
    | None ->
        let t = build_template config app graph ~memo ~owner target in
        Mid_tbl.add tcache mid t;
        t
  in
  let it = Graph.interner graph in
  let resources = Layouts.Package.resources app.Framework.App.package in
  let rs enc =
    if enc land 1 = 1 then Intern.ctx_node it ~base:(enc lsr 1) ~ctx:kctx.k_clone else enc lsr 1
  in
  Array.iter
    (function
      | T_alloc { out; cls; site; is_view } ->
          let alloc = Graph.fresh_alloc graph ~cls ~site in
          let value = if is_view then Node.V_view (Node.V_alloc alloc) else Node.V_obj alloc in
          Graph.seed_id graph (rs out) value
      | T_edge { src; dst; kind } -> Graph.add_edge_ids graph ~kind (rs src) (rs dst)
      | T_layout_id { out; name } ->
          Graph.seed_id graph (rs out)
            (Node.V_layout_id (Layouts.Resource.layout_id resources name))
      | T_view_id { out; name } ->
          Graph.seed_id graph (rs out) (Node.V_view_id (Layouts.Resource.view_id resources name))
      | T_layout_top { out } -> Graph.seed_id graph (rs out) Node.V_layout_top
      | T_view_top { out } -> Graph.seed_id graph (rs out) Node.V_view_id_top
      | T_const { out; n } -> (
          match value_of_int resources n with
          | Some value -> Graph.seed_id graph (rs out) value
          | None -> ())
      | T_ret { src } -> Graph.add_edge_ids graph (rs src) (Lazy.force kctx.k_ret)
      | T_call c -> (
          match c.tc_inline with
          | Some ti
            when kctx.k_depth < config.Config.inline_depth
                 && not (List.mem ti.ti_tmid kctx.k_stack) ->
              incr kctx.k_clones;
              let clone = !(kctx.k_clones) in
              Graph.add_edge_ids graph (rs c.tc_recv)
                (Intern.ctx_node it ~base:ti.ti_this ~ctx:clone);
              List.iter2
                (fun arg param ->
                  Graph.add_edge_ids graph (rs arg) (Intern.ctx_node it ~base:param ~ctx:clone))
                c.tc_args ti.ti_params;
              let k_ret =
                match c.tc_out with
                | Some z ->
                    let ret = Intern.ctx_node it ~base:(Lazy.force ti.ti_ret) ~ctx:clone in
                    Graph.add_edge_ids graph ret (rs z);
                    Lazy.from_val ret
                | None -> lazy (Intern.ctx_node it ~base:(Lazy.force ti.ti_ret) ~ctx:clone)
              in
              expand_template config app graph tcache ~memo
                ~kctx:
                  { k_depth = kctx.k_depth + 1; k_clone = clone; k_ret;
                    k_stack = ti.ti_tmid :: kctx.k_stack; k_clones = kctx.k_clones }
                ~owner:ti.ti_owner ti.ti_target
          | _ ->
              List.iter
                (fun (this_id, param_ids, ret_id) ->
                  Graph.add_edge_ids graph (rs c.tc_recv) this_id;
                  List.iter2
                    (fun arg param -> Graph.add_edge_ids graph (rs arg) param)
                    c.tc_args param_ids;
                  Option.iter (fun z -> Graph.add_edge_ids graph ret_id (rs z)) c.tc_out)
                c.tc_fallback;
              (match c.tc_op with
              | Some kind ->
                  ignore
                    (Graph.fresh_op_ids graph ~kind ~site:c.tc_site ~recv:(rs c.tc_recv)
                       ~args:(List.map rs c.tc_args)
                       ~out:(Option.map rs c.tc_out))
              | None -> ())))
    instrs

(* [keyed = Some tcache] routes inlinable clone bodies through the
   context-keyed template expansion above; [None] clones program text. *)
let rec extract_stmt config (app : Framework.App.t) graph ~keyed ~memo ~ctx mid env ~index stmt =
  let hierarchy = app.Framework.App.hierarchy in
  let resources = Layouts.Package.resources app.package in
  let is_view cls = Framework.Views.is_view_class hierarchy cls in
  let site = { Node.s_in = mid; s_stmt = index } in
  let v name = var mid (ctx.rename name) in
  match stmt with
  | Jir.Ast.New (x, cls) ->
      let alloc = Graph.fresh_alloc graph ~cls ~site in
      let value = if is_view cls then Node.V_view (Node.V_alloc alloc) else Node.V_obj alloc in
      Graph.seed graph (v x) value
  | Jir.Ast.Copy (x, y) -> Graph.add_edge graph (v y) (v x)
  | Jir.Ast.Read_field (x, _, f) -> Graph.add_edge graph (Node.N_field f) (v x)
  | Jir.Ast.Write_field (_, f, y) -> Graph.add_edge graph (v y) (Node.N_field f)
  | Jir.Ast.Read_layout_id (x, name) ->
      Graph.seed graph (v x) (Node.V_layout_id (Layouts.Resource.layout_id resources name))
  | Jir.Ast.Read_view_id (x, name) ->
      Graph.seed graph (v x) (Node.V_view_id (Layouts.Resource.view_id resources name))
  | Jir.Ast.Read_layout_top x -> Graph.seed graph (v x) Node.V_layout_top
  | Jir.Ast.Read_view_top x -> Graph.seed graph (v x) Node.V_view_id_top
  | Jir.Ast.Const_int (x, n) -> (
      match value_of_int resources n with
      | Some value -> Graph.seed graph (v x) value
      | None -> ())
  | Jir.Ast.Const_null _ -> ()
  | Jir.Ast.Cast (x, cls, y) ->
      let kind = if config.Config.cast_filtering then Graph.E_cast cls else Graph.E_direct in
      Graph.add_edge graph ~kind (v y) (v x)
  | Jir.Ast.Return (Some x) -> Graph.add_edge graph (v x) ctx.ret_target
  | Jir.Ast.Return None -> ()
  | Jir.Ast.Invoke (lhs, recv, name, args) -> (
      let arity = List.length args in
      (* Inlining-based context sensitivity: clone a small, uniquely
         resolved callee instead of sharing its locals across all call
         sites.  Abstraction names (allocation/op/inflation sites) stay
         structural, so clones of the same site denote the same
         objects; only the local value flow is separated. *)
      let app_targets, may_reach_platform, inlinable =
        call_info config hierarchy ~memo env ~depth:ctx.depth ~stack:ctx.stack recv name arity
      in
      match (inlinable, app_targets, keyed) with
      | true, [ (owner, target) ], Some tcache ->
          (* Context-keyed boundary: the top-level statement walk stays
             structural, but the clone body is expanded entirely in id
             space.  Clone numbering is shared with the inlining path
             (same counter, same pre-order mint), so the ⟨node, ctx⟩
             keys decode to exactly the [$n] names inlining would
             emit. *)
          let tmid = Node.mid_of_meth owner target in
          incr ctx.clones;
          let clone = !(ctx.clones) in
          let it = Graph.interner graph in
          let cnode name =
            Intern.ctx_node it ~base:(Graph.node_id graph (var tmid name)) ~ctx:clone
          in
          let vid name = Graph.node_id graph (v name) in
          Graph.add_edge_ids graph (vid recv) (cnode Jir.Ast.this_var);
          List.iter2
            (fun arg (param, _) -> Graph.add_edge_ids graph (vid arg) (cnode param))
            args target.m_params;
          let k_ret =
            match lhs with
            | Some z ->
                let ret = cnode "$ret" in
                Graph.add_edge_ids graph ret (vid z);
                Lazy.from_val ret
            | None -> lazy (cnode "$ret")
          in
          let kctx =
            { k_depth = ctx.depth + 1; k_clone = clone; k_ret; k_stack = tmid :: ctx.stack;
              k_clones = ctx.clones }
          in
          expand_template config app graph tcache ~memo ~kctx ~owner target
      | true, [ (owner, target) ], None ->
          let tmid = Node.mid_of_meth owner target in
          let suffix = fresh_clone_suffix ctx in
          let rename' name = name ^ suffix in
          Graph.add_edge graph (v recv) (var tmid (rename' Jir.Ast.this_var));
          List.iter2
            (fun arg (param, _) -> Graph.add_edge graph (v arg) (var tmid (rename' param)))
            args target.m_params;
          let ret_target =
            match lhs with
            | Some z ->
                let ret_var = var tmid (rename' "$ret") in
                Graph.add_edge graph ret_var (v z);
                ret_var
            | None -> var tmid (rename' "$ret")
          in
          let ctx' =
            { ctx with depth = ctx.depth + 1; rename = rename'; ret_target; stack = tmid :: ctx.stack }
          in
          let env' = lazy_typing_env app memo ~mid:tmid ~owner target in
          List.iteri
            (fun index stmt ->
              extract_stmt config app graph ~keyed ~memo ~ctx:ctx' tmid env' ~index stmt)
            target.m_body
      | _ ->
          List.iter
            (fun (owner, (target : Jir.Ast.meth)) ->
              let tmid = Node.mid_of_meth owner target in
              Graph.add_edge graph (v recv) (var tmid Jir.Ast.this_var);
              List.iter2
                (fun arg (param, _) -> Graph.add_edge graph (v arg) (var tmid param))
                args target.m_params;
              Option.iter (fun z -> Graph.add_edge graph (Node.N_ret tmid) (v z)) lhs)
            app_targets;
          if may_reach_platform then (
            match Framework.Api.classify ~name ~arity with
            | Some kind ->
                ignore
                  (Graph.fresh_op graph ~kind ~site ~recv:(v recv)
                     ~args:(List.map v args)
                     ~out:(Option.map v lhs))
            | None -> ()))

let extract_meth config app graph ~keyed ~memo ~clones ~owner (m : Jir.Ast.meth) =
  let mid = Node.mid_of_meth owner m in
  let env = lazy_typing_env app memo ~mid ~owner m in
  let ctx = top_ctx ~clones mid in
  List.iteri
    (fun index stmt -> extract_stmt config app graph ~keyed ~memo ~ctx mid env ~index stmt)
    m.m_body

(* Seed the implicit activity instance into [this] of every lifecycle
   callback the class (or an application superclass) defines: the
   paper's [t = new a(); t.m()] modeling. *)
let seed_activity_callbacks (app : Framework.App.t) graph (cls : Jir.Ast.cls) =
  List.iter
    (fun (name, arity) ->
      match Jir.Hierarchy.resolve app.hierarchy cls.c_name { Jir.Ast.mk_name = name; mk_arity = arity } with
      | Some (owner, m) ->
          Graph.seed graph (var (Node.mid_of_meth owner m) Jir.Ast.this_var) (Node.V_act cls.c_name)
      | None -> ())
    Framework.Lifecycle.activity_callbacks;
  (* Menu extension: onCreateOptionsMenu receives the activity's
     implicit menu object; onOptionsItemSelected runs on the activity
     (its item parameter is fed by the solver at Menu_add sites). *)
  let seed_menu_callback (name, arity) param_value =
    match
      Jir.Hierarchy.resolve app.hierarchy cls.c_name { Jir.Ast.mk_name = name; mk_arity = arity }
    with
    | Some (owner, m) ->
        let tmid = Node.mid_of_meth owner m in
        Graph.seed graph (var tmid Jir.Ast.this_var) (Node.V_act cls.c_name);
        (match (param_value, m.m_params) with
        | Some value, (param, _) :: _ -> Graph.seed graph (var tmid param) value
        | _ -> ())
    | None -> ()
  in
  seed_menu_callback Framework.Lifecycle.on_create_options_menu
    (Some (Node.V_view (Node.V_alloc (Node.menu_site cls.c_name))));
  seed_menu_callback Framework.Lifecycle.on_options_item_selected None

(* Dialogs (extension): platform invokes lifecycle callbacks on dialog
   objects created by the application. *)
let seed_dialog_site (app : Framework.App.t) graph (site : Node.alloc_site) =
  if Framework.Views.is_dialog_class app.hierarchy site.a_cls then
    List.iter
      (fun (name, arity) ->
        match
          Jir.Hierarchy.resolve app.hierarchy site.a_cls { Jir.Ast.mk_name = name; mk_arity = arity }
        with
        | Some (owner, m) ->
            Graph.seed graph (var (Node.mid_of_meth owner m) Jir.Ast.this_var) (Node.V_obj site)
        | None -> ())
      Framework.Lifecycle.dialog_callbacks

let fragments_of (app : Framework.App.t) starts ~dialogs =
  {
    Graph.fr_program = app.program;
    fr_starts = starts;
    fr_dialogs = dialogs;
    fr_counts = Layouts.Resource.counts (Layouts.Package.resources app.package);
  }

(* Walk every method in program order — [each index ~owner meth]
   emits its constraints — then run the two global seed passes.  At
   inline depth 0 each method's log slice is recorded as its fragment
   (a method's slice there depends only on its own body; deeper
   extractions inline callee bodies into their callers' slices). *)
let assemble config (app : Framework.App.t) graph each =
  let starts = ref [] and index = ref 0 in
  List.iter
    (fun (cls : Jir.Ast.cls) ->
      List.iter
        (fun m ->
          starts := Graph.cursor graph :: !starts;
          each !index ~owner:cls.c_name m;
          incr index)
        cls.c_methods)
    app.program.p_classes;
  starts := Graph.cursor graph :: !starts;
  List.iter (seed_activity_callbacks app graph) (Framework.App.activity_classes app);
  let dialogs = (Graph.cursor graph).c_seeds in
  if config.Config.model_dialogs then List.iter (seed_dialog_site app graph) (Graph.allocs graph);
  if config.Config.inline_depth = 0 then
    Graph.set_fragments graph
      (fragments_of app (Array.of_list (List.rev (Graph.cursor graph :: !starts))) ~dialogs)

(* [~keyed:true] expands clones in id space (the production path);
   [~keyed:false] inlines their program text, the rule-table
   reference's extraction. *)
let extract ?interner ~keyed config (app : Framework.App.t) =
  (* Clone names must be deterministic per extraction, not per process:
     two runs over the same app (e.g. the reference equivalence tests,
     or Diff) must name inlined variables identically.  The counter
     lives here rather than at module level so extractions running
     concurrently on separate domains cannot interleave. *)
  let clones = ref 0 in
  let interner =
    match interner with
    | Some it -> it
    | None ->
        (* Fresh graphs sit on the frozen shared tier, so the resource
           vocabulary resolves by arithmetic instead of being
           re-interned per task.  Donor interners (incremental warm
           path) are passed through untouched. *)
        Intern.create ~shared:(Intern.shared_tier ()) ()
  in
  let graph = Graph.create ~interner () in
  (* The template cache is per-extraction: it captures base ids of
     this graph's interner. *)
  let keyed = if keyed && config.Config.inline_depth > 0 then Some (Mid_tbl.create 64 : tcache) else None in
  let memo = fresh_memo () in
  assemble config app graph (fun _ ~owner m -> extract_meth config app graph ~keyed ~memo ~clones ~owner m);
  graph

let run ?interner config app = extract ?interner ~keyed:true config app

let run_inlined ?interner config app = extract ?interner ~keyed:false config app

(* Two methods with one key share their locations and allocation
   sites ([Node.mid_of_meth]), so an edited one's slice would depend
   on its twin's: such a class is re-extracted in full. *)
let duplicate_keys (c : Jir.Ast.cls) =
  let rec dup = function
    | [] -> false
    | m :: rest -> List.exists (Jir.Ast.same_meth_arity m) rest || dup rest
  in
  dup c.c_methods

(* Which methods of [app] must be re-extracted over [prev]'s
   fragments: those whose record differs from the one [prev] extracted
   (a class record [Corpus.Patch] left untouched is skipped whole).
   The programs must align class for class and method for method on
   everything the class and method fingerprints cover, and a changed
   field declaration or return type reaches other methods' typing:
   each declines. *)
let edited_methods (fr : Graph.fragments) (app : Framework.App.t) =
  (* one slot per method of [prev]'s program; a longer program fails
     the walk before it writes past them *)
  let edited = Array.make (Array.length fr.fr_starts - 2) false and index = ref 0 in
  let mark b _ =
    edited.(!index) <- b;
    incr index
  in
  let rec methods ms ms' =
    match (ms, ms') with
    | [], [] -> Ok ()
    | (m : Jir.Ast.meth) :: ms, (m' : Jir.Ast.meth) :: ms' ->
        if m == m' || Jir.Ast.equal_meth m m' then (mark false m; methods ms ms')
        else if not (Jir.Ast.same_meth_key m m') then Error "method set changed"
        else if m.m_ret <> m'.m_ret then Error "a method's return type changed"
        else (mark true m; methods ms ms')
    | _ -> Error "method set changed"
  in
  let rec classes cs cs' =
    match (cs, cs') with
    | [], [] -> Ok ()
    | (c : Jir.Ast.cls) :: cs, c' :: cs' when c == c' ->
        index := !index + List.length c.c_methods;
        classes cs cs'
    | (c : Jir.Ast.cls) :: cs, (c' : Jir.Ast.cls) :: cs' ->
        if not (Jir.Ast.same_class_key c c') then Error "class hierarchy changed"
        else if c.c_fields <> c'.c_fields then Error "field declarations changed"
        else if duplicate_keys c' then Error "an edited class defines a method key twice"
        else Result.bind (methods c.c_methods c'.c_methods) (fun () -> classes cs cs')
    | _ -> Error "class hierarchy changed"
  in
  Result.map (fun () -> edited) (classes fr.fr_program.p_classes app.program.p_classes)

(* The dialog pass over the assembled allocation log, from [prev]'s:
   its seeds come in allocation order, one group per dialog site (each
   seed's value is the site), and a replayed site is the very record
   [prev] logged.  So a replayed site takes its group from [prev]'s
   pass, a group of a site only an edited method minted is dropped,
   and only the sites the edited methods minted ([fresh]) are checked
   against the hierarchy. *)
let replay_dialogs app graph ~prev ~(fr : Graph.fragments) ~fresh ~gone =
  let hi = fr.fr_starts.(Array.length fr.fr_starts - 1).c_seeds in
  let site_of i = match Graph.seed_at prev i with _, Node.V_obj site -> site | _ -> assert false in
  let next = ref fr.fr_dialogs in
  for i = 0 to (Graph.cursor graph).c_allocs - 1 do
    let site = Graph.alloc_at graph i in
    if fresh i then seed_dialog_site app graph site
    else begin
      while !next < hi && gone (site_of !next) do
        incr next
      done;
      while !next < hi && site_of !next == site do
        let nid, value = Graph.seed_at prev !next in
        Graph.seed_id graph nid value;
        incr next
      done
    end
  done

let reextract config (app : Framework.App.t) ~prev =
  match Graph.fragments prev with
  | None -> Error "the previous graph recorded no fragments"
  | Some fr ->
      Result.bind (edited_methods fr app) (fun edited ->
          let graph = Graph.create ~interner:(Graph.interner prev) () in
          let memo = fresh_memo () and clones = ref 0 in
          let n = Array.length edited in
          let starts = Array.make (n + 2) (Graph.cursor graph) in
          (* each run of unedited methods is one replay of [prev]'s
             logs; a run that lands where it started in [prev] keeps
             its starts *)
          let run = ref 0 and index = ref 0 and edits = ref [] in
          let flush upto =
            let lo = !run in
            if lo < upto then begin
              let base = Graph.cursor graph in
              if base = fr.fr_starts.(lo) then Array.blit fr.fr_starts lo starts lo (upto - lo)
              else
                for k = lo to upto - 1 do
                  starts.(k) <- Graph.shift ~base ~lo:fr.fr_starts.(lo) fr.fr_starts.(k)
                done;
              Graph.replay graph ~from:prev fr.fr_starts.(lo) fr.fr_starts.(upto)
            end
          in
          List.iter
            (fun (c : Jir.Ast.cls) ->
              List.iter
                (fun m ->
                  let k = !index in
                  if edited.(k) then begin
                    flush k;
                    edits := k :: !edits;
                    starts.(k) <- Graph.cursor graph;
                    extract_meth config app graph ~keyed:None ~memo ~clones ~owner:c.c_name m;
                    run := k + 1
                  end;
                  incr index)
                c.c_methods)
            app.program.p_classes;
          flush n;
          starts.(n) <- Graph.cursor graph;
          (* The global passes read the hierarchy alone, which
             [edited_methods] found unchanged: the activity callbacks'
             seeds replay as they are. *)
          Graph.replay graph ~from:prev fr.fr_starts.(n) { (fr.fr_starts.(n)) with c_seeds = fr.fr_dialogs };
          let dialogs = (Graph.cursor graph).c_seeds in
          if config.Config.model_dialogs then begin
            let within (c : Graph.cursor array) k i = i >= c.(k).c_allocs && i < c.(k + 1).c_allocs in
            let fresh i = List.exists (fun k -> within starts k i) !edits in
            let gone site =
              List.exists
                (fun k ->
                  let rec scan j = within fr.fr_starts k j && (Graph.alloc_at prev j == site || scan (j + 1)) in
                  scan fr.fr_starts.(k).c_allocs)
                !edits
            in
            replay_dialogs app graph ~prev ~fr ~fresh ~gone
          end;
          starts.(n + 1) <- Graph.cursor graph;
          Graph.set_fragments graph (fragments_of app starts ~dialogs);
          (* [value_of_int] reads the tables: once they grew, by this
             re-extraction or by anything else sharing the package
             since [prev]'s extraction, an unedited method's integer
             constant may name a resource *)
          if Layouts.Resource.counts (Layouts.Package.resources app.package) <> fr.fr_counts then
            Error "the resource tables grew since the previous extraction"
          else if Graph.has_top graph then Error "unknown-id markers present"
          else Ok (graph, edited))
