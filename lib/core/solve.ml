(* The solver (Section 4.2/4.3).  It stages the rule table in [Rules]
   into closures at freeze and runs them semi-naively over dense ids;
   the table's interpreter, [Rules.run], is the reference it must
   agree with ([Analysis.reference]).  The result lands in the graph's
   id-level solution store ([Graph.solution]) as the solver's own
   bitset rows, sound mode's taint rows included (the table's taint
   stratum), and a capturing solve ([run_solved]/[run_incremental])
   persists the same rows as a [solved]. *)

type stats = {
  iterations : int;
  propagations : int;
  op_applications : int;
  delta_pushes : int;
  desc_cache_hits : int;
  desc_cache_misses : int;
  interned_values : int;  (** distinct interned abstract values *)
  interned_nodes : int;  (** distinct interned locations *)
  bitset_words : int;  (** words allocated across solution-set bitsets *)
  union_calls : int;  (** word-level bitset union calls on direct edges *)
  scc_count : int;  (** direct-edge flow SCCs at freeze time *)
  largest_scc : int;  (** members in the largest direct-edge SCC *)
  ctx_count : int;
      (** distinct call-string contexts (clone numbers) minted by the
          context-keyed extraction (inline depth > 0, else 0) *)
  ctx_keys : int;  (** distinct ⟨node, ctx⟩ keys interned (ditto) *)
  warm_solve : bool;  (** solved incrementally from a previous solution *)
  dirty_comps : int;  (** condensation components invalidated by the edit script (warm solves) *)
  reused_comps : int;  (** components whose solution sets were restored by aliasing (warm solves) *)
  fallback : string option;
      (** why an incremental request fell back to a full solve, if it did *)
  taint_rounds : int;  (** rounds of the taint stratum (sound mode, else 0) *)
  taint_propagations : int;  (** taint-delta worklist pops (ditto) *)
  taint_op_applications : int;  (** op applications of the taint entries (ditto) *)
}

let passes_cast = Rules.passes_cast

(* ------------------------------------------------------------------ *)
(* Interned engine: a semi-naive fixed point over dense integer ids.
   After seeding, every op runs once; from then on an op is re-applied
   only when a location it reads grew or a relation it consults
   changed.  Ops still read full sets when applied, so the solution is
   identical to the reference's ([Rules.run]).  An op applies its
   kind's table entries, staged once (below).  Every location,
   abstract value, view, listener entry and holder is hash-consed
   ([Intern]) when first seen; solution sets, delta sets and the view
   relations become [Util.Bitset] over those ids, and the (static) flow edges are frozen
   into CSR int arrays.  Ops decode ids back to structural values only
   at rule boundaries (hierarchy lookups, inflation, callbacks).  At
   fixpoint the solver's own rows become the graph's solution store
   ([isolution], no copy), and every downstream consumer (Analysis,
   Metrics, Export, Diff, tests) decodes what it reads from them, so
   it is engine-agnostic: the rule-table reference encodes its result
   into the same store. *)

(* Growable array of per-id bitsets; a slot is allocated on first use
   so untouched ids cost one word. *)
module Slots = struct
  type t = { mutable a : Util.Bitset.t option array }

  let create () = { a = [||] }

  let ensure t i =
    let n = Array.length t.a in
    if i >= n then begin
      let cap = max 64 (max (i + 1) (2 * n)) in
      let a = Array.make cap None in
      Array.blit t.a 0 a 0 n;
      t.a <- a
    end

  let get t i =
    ensure t i;
    match t.a.(i) with
    | Some b -> b
    | None ->
        let b = Util.Bitset.create () in
        t.a.(i) <- Some b;
        b

  let find t i = if i < Array.length t.a then t.a.(i) else None

  let set t i b =
    ensure t i;
    t.a.(i) <- Some b

  (* Detach slot [i] (delta consumption): later pushes start fresh. *)
  let take t i =
    if i < Array.length t.a then begin
      let b = t.a.(i) in
      t.a.(i) <- None;
      b
    end
    else None

  let total_words t =
    Array.fold_left (fun acc o -> match o with Some b -> acc + Util.Bitset.words b | None -> acc) 0 t.a
end

(* A staged points-to premise's candidates. *)
type buf = { mutable a : int array; mutable n : int }

let buf_add b x =
  if b.n = Array.length b.a then b.a <- Array.append b.a (Array.make (max 16 b.n) 0);
  b.a.(b.n) <- x;
  b.n <- b.n + 1

(* A dynamic reader of a callback's return location: an op, or the
   declared-fragment pass. *)
type rd = RD_op of int | RD_frags

type istate = {
  iconfig : Config.t;
  iapp : Framework.App.t;
  igraph : Graph.t;
  it : Intern.t;
  (* frozen flow edges, SCC-condensed CSR over the node ids assigned at
     freeze time (ids >= [csr_n] are minted during solving, have no
     edges, and are their own singleton components) *)
  csr_n : int;
  nrep : int array;  (** node id -> direct-edge SCC representative, sized [csr_n] *)
  crow : int array;  (** condensed CSR over representatives *)
  cdst : int array;  (** destinations, already representatives *)
  ckind : int array;  (** -1 = direct, else cast-class sym *)
  cast_names : string array;  (** cast sym -> class name *)
  mutable cast_memo : Bytes.t array;  (** per cast sym, per value id: 0 unknown / 1 pass / 2 fail *)
  iscc_count : int;
  ilargest_scc : int;
  (* solution state *)
  sols : Slots.t;  (** SCC representative -> value-id set, shared by every member *)
  ideltas : Slots.t;  (** SCC representative -> values since last drain *)
  mutable free_deltas : Util.Bitset.t list;
      (** cleared delta sets recycled to avoid regrowing word arrays *)
  nq : int Queue.t;
  npending : Util.Bitset.t;
  (* static op index *)
  iop_site : Node.op_site array;
  iop_recv : int array;
  iop_args : int array array;
  iop_out : int array;  (** -1 = no out location *)
  op_rrow : int array;
  op_rops : int array;
      (** SCC representative -> op indexes reading a member, as a CSR
          over [csr_n] representatives, ascending op order per row *)
  ifoot : Rules.footprint array;  (** per op, its kind's footprint *)
  readers : int list array;  (** per relation ([rix]), the ops whose kind reads it *)
  iop_rule : (istate -> unit) array;  (** per op, its kind's staged entries *)
  mutable icur_op : int;  (** the op being applied, [-1] in a pass *)
  env : int array;  (** the staged entries' variables *)
  clos : Util.Bitset.t array;  (** per variable, the [Desc] closure taken when it was bound *)
  bufs : buf array;  (** per points-to premise, its candidates *)
  iret_deps : (int, rd list) Hashtbl.t;
      (** rep -> dynamic readers of a return location; unseeded, as its
          fold orders [sd_ret_deps], so the snapshot's [ret_deps] *)
  (* view relations on ids *)
  ichildren : Slots.t;
  iparents : Slots.t;
  idesc_cache : (int, Util.Bitset.t) Hashtbl.t;  (** strict descendant closures *)
  mutable idesc_hits : int;
  mutable idesc_misses : int;
  iids : Slots.t;  (** view id -> rid syms *)
  iby_id : Slots.t;  (** rid sym -> view ids *)
  iroots : Slots.t;  (** holder id -> root view ids *)
  ilisteners : Slots.t;  (** view id -> listener entry ids *)
  mutable iholder_ids : int list;  (** discovery order, newest first *)
  iholders_seen : Util.Bitset.t;
  grown : bool array;  (** per relation ([rix]), grown since the round's ops were scheduled *)
  mutable irc_onclick : bool;  (** a fresh inflation added declarative handlers *)
  mutable irc_fragments : bool;  (** a fresh inflation added declared fragments *)
  mutable idecl : bool;  (** the memo may hold an onClick or <fragment> node *)
  (* warm (incremental) solving: [sols] starts as a copy of the
     previous solution's slot array, so a restored set is the previous
     one, shared and never mutated in place; it is copied the first
     time a write would grow it.  Relation rows are copied at restore
     instead, so they are always owned. *)
  mutable iwarm : bool;
  mutable iprev_sets : Util.Bitset.t option array;
      (** the previous solution's slots: a slot physically equal to
          its entry here is borrowed *)
  mutable isets : int;  (** warm: the points-to sets in [sols] *)
  mutable iwords : int;  (** warm: the words of the sets in [sols] that [iowned] does not list *)
  mutable iowned : int list;  (** warm: reps whose set this solve created or took over *)
  (* write recording: while an op (or the declarative/fragment pseudo
     pass) runs, every rep it pushes to is logged, so a later patch that
     invalidates the op knows which components its values reached.
     [irec_writer] is the running op index, [Array.length iops] for the
     declarative pass, [+1] for the fragment pass, [-1] off. *)
  mutable irec_writer : int;
  irec_targets : Util.Bitset.t array;
  (* the taint stratum (sound mode), run on the points-to fixpoint; its
     deltas reuse [ideltas] and the propagation worklist *)
  itaints : Slots.t;  (** SCC representative -> tainted value ids, inside [sols] *)
  itainted_views : Util.Bitset.t;  (** view ids *)
  iwfresh : Util.Bitset.t;  (** value ids of the views tainted since the last lift *)
  (* counters *)
  mutable ipropagations : int;
  mutable iop_applications : int;
  mutable idelta_pushes : int;
  mutable iunion_calls : int;
  mutable itaint_rounds : int;
  mutable itaint_propagations : int;
  mutable itaint_op_applications : int;
}

let rix = function Rules.Child -> 0 | Rules.Id -> 1 | Rules.Root -> 2

let ienqueue st nid = if Util.Bitset.add st.npending nid then Queue.push nid st.nq

(* THE bounds guard for mid-solve-minted ids.  The CSR and the rep
   table are sized to the node count at freeze time, but the interner
   keeps minting ids while solving (views discovered mid-solve, [this]
   / parameter variables of handler methods with empty bodies).  Every
   snapshot-sized lookup — [nrep], [crow], [op_rrow] — must funnel an
   id through here first: ids >= [csr_n] are their own singleton
   components with no edges and no static readers. *)
let irep st nid = if nid < st.csr_n then st.nrep.(nid) else nid

(* Per-node delta slots cycle constantly (detached on drain,
   repopulated on the next push); drawing from the recycle pool keeps
   their word arrays at capacity instead of regrowing from scratch each
   round. *)
let idelta_slot st nid =
  match Slots.find st.ideltas nid with
  | Some d -> d
  | None -> (
      match st.free_deltas with
      | d :: rest ->
          st.free_deltas <- rest;
          Slots.set st.ideltas nid d;
          d
      | [] -> Slots.get st.ideltas nid)

(* A warm solve's slot [slot] at [rid] is borrowed when it is the
   previous solution's own (an [option] block the restore copied). *)
let borrowed st rid slot = rid < Array.length st.iprev_sets && slot == st.iprev_sets.(rid)

let iborrowed st rid = match Slots.find st.sols rid with Some _ as slot -> borrowed st rid slot | None -> false

(* A warm solve's set at [rid], owned before a mutating write: the
   previous solution's bitset must stay intact (it is shared with the
   captured [solved] and possibly older ones), so a borrowed slot is
   replaced with a copy, and a missing one is created.  Either is
   listed in [iowned], whose words the capture counts. *)
let iown_sol st rid =
  match Slots.find st.sols rid with
  | Some b as slot when borrowed st rid slot ->
      st.iwords <- st.iwords - Util.Bitset.words b;
      st.iowned <- rid :: st.iowned;
      let c = Util.Bitset.copy b in
      Slots.set st.sols rid c;
      c
  | Some b -> b
  | None ->
      st.isets <- st.isets + 1;
      st.iowned <- rid :: st.iowned;
      Slots.get st.sols rid

(* Pushes land on the component representative: one shared bitset per
   direct-edge cycle, so a value entering anywhere in a cycle is a
   single [add] instead of a propagation lap around it.

   Recording is unconditional on the writer, not gated on growth: a
   removed op's contribution must dirty every component it ever pushed
   to, even where another source supplied the same value. *)
let ipush st nid vid =
  let rid = irep st nid in
  if st.irec_writer >= 0 then ignore (Util.Bitset.add st.irec_targets.(st.irec_writer) rid);
  if st.iwarm then begin
    let present =
      match Slots.find st.sols rid with Some b -> Util.Bitset.mem b vid | None -> false
    in
    if not present then begin
      ignore (Util.Bitset.add (iown_sol st rid) vid);
      ignore (Util.Bitset.add (idelta_slot st rid) vid);
      ienqueue st rid
    end
  end
  else if Util.Bitset.add (Slots.get st.sols rid) vid then begin
    ignore (Util.Bitset.add (idelta_slot st rid) vid);
    ienqueue st rid
  end

let cast_passes st sym vid =
  let memo = st.cast_memo.(sym) in
  let memo =
    if vid >= Bytes.length memo then begin
      let nlen = max 256 (max (vid + 1) (2 * Bytes.length memo)) in
      let m = Bytes.make nlen '\000' in
      Bytes.blit memo 0 m 0 (Bytes.length memo);
      st.cast_memo.(sym) <- m;
      m
    end
    else memo
  in
  match Bytes.get memo vid with
  | '\001' -> true
  | '\002' -> false
  | _ ->
      let ok =
        passes_cast st.iapp.Framework.App.hierarchy st.cast_names.(sym)
          (Intern.value_of st.it vid)
      in
      Bytes.set memo vid (if ok then '\001' else '\002');
      ok

(* Merge the delta [d] into [dst]'s set [into], queueing what it adds. *)
let iunion st dst d into =
  let grew = ref false in
  Util.Bitset.union_delta ~into d ~on_new:(fun vid ->
      grew := true;
      ignore (Util.Bitset.add (idelta_slot st dst) vid));
  if !grew then ienqueue st dst

(* Semi-naive propagation: push only each node's delta (the values that
   arrived since its last drain), over the SCC-condensed CSR.  Sound
   because flow edges are static during solving, so every (value,
   edge) pair is attempted once; [changed] fires for every node whose
   set grew, letting the caller schedule the ops reading it.  The
   worklist carries component representatives only (every enqueue goes
   through [ipush]/[irep]), and direct edges inside a component were
   dropped at freeze time — the shared bitset IS their fixpoint.
   Direct inter-component edges merge whole delta words; cast edges
   filter per value through the per-sym memo.  [cdst] entries are
   already representatives, so pushes stay in rep space. *)
let ipropagate st ~changed =
  while not (Queue.is_empty st.nq) do
    let rid = Queue.pop st.nq in
    Util.Bitset.remove st.npending rid;
    st.ipropagations <- st.ipropagations + 1;
    match Slots.take st.ideltas rid with
    | None -> ()
    | Some d when Util.Bitset.is_empty d ->
        st.free_deltas <- d :: st.free_deltas
    | Some d ->
        (if rid < st.csr_n then begin
           let hi = st.crow.(rid + 1) in
           let dcard = Util.Bitset.cardinal d in
           for e = st.crow.(rid) to hi - 1 do
             let dst = st.cdst.(e) in
             let k = st.ckind.(e) in
             if k < 0 then begin
               st.idelta_pushes <- st.idelta_pushes + dcard;
               st.iunion_calls <- st.iunion_calls + 1;
               (* A borrowed destination is copied only when the union
                  would actually grow it, and left alone otherwise: not
                  even its capacity may change under the previous
                  solution. *)
               if not st.iwarm then iunion st dst d (Slots.get st.sols dst)
               else
                 match Slots.find st.sols dst with
                 | Some b as slot when borrowed st dst slot && Util.Bitset.subset d b -> ()
                 | _ -> iunion st dst d (iown_sol st dst)
             end
             else
               Util.Bitset.iter
                 (fun vid ->
                   st.idelta_pushes <- st.idelta_pushes + 1;
                   if cast_passes st k vid then ipush st dst vid)
                 d
           done
         end);
        Util.Bitset.clear d;
        st.free_deltas <- d :: st.free_deltas;
        changed rid
  done

(* Taint pushes land on the representative too, and only where its
   set holds the value ([taint ⊆ set]). *)
let itaint st nid vid =
  let rid = irep st nid in
  match Slots.find st.sols rid with
  | Some set when Util.Bitset.mem set vid ->
      if Util.Bitset.add (Slots.get st.itaints rid) vid then begin
        ignore (Util.Bitset.add (idelta_slot st rid) vid);
        ienqueue st rid
      end
  | _ -> ()

(* A view with no value id is in no set: the lift has nothing to do. *)
let itaint_view st wid =
  if Util.Bitset.add st.itainted_views wid then begin
    let vid = Intern.value_of_view_id st.it wid in
    if vid >= 0 then ignore (Util.Bitset.add st.iwfresh vid)
  end

(* Merge [set ∩ mask] into [rid]'s taint, queueing what it adds. *)
let itaint_inter st rid set mask =
  if Util.Bitset.intersects set mask then begin
    let grew = ref false in
    Util.Bitset.inter_delta ~into:(Slots.get st.itaints rid) set mask ~on_new:(fun vid ->
        grew := true;
        ignore (Util.Bitset.add (idelta_slot st rid) vid));
    if !grew then ienqueue st rid
  end

(* Taint flow: [ipropagate]'s schedule over the taint deltas.  A
   member of a direct-edge SCC shares its representative's set, and a
   direct edge copies taint unfiltered, so members share one taint row
   too, and the condensed CSR carries it exactly: direct edges merge
   the delta's words (kept inside the destination's set), cast edges
   filter per value. *)
let itaint_propagate st ~changed =
  while not (Queue.is_empty st.nq) do
    let rid = Queue.pop st.nq in
    Util.Bitset.remove st.npending rid;
    st.itaint_propagations <- st.itaint_propagations + 1;
    match Slots.take st.ideltas rid with
    | None -> ()
    | Some d ->
        if rid < st.csr_n then
          for e = st.crow.(rid) to st.crow.(rid + 1) - 1 do
            let dst = st.cdst.(e) and k = st.ckind.(e) in
            if k >= 0 then Util.Bitset.iter (fun vid -> if cast_passes st k vid then itaint st dst vid) d
            else match Slots.find st.sols dst with Some set -> itaint_inter st dst d set | None -> ()
          done;
        Util.Bitset.clear d;
        st.free_deltas <- d :: st.free_deltas;
        changed rid
  done

(* Relation updates. *)

(* The views reachable from [wid] over [slots] (parents or children),
   [wid] itself when [reflexive] or on a cycle. *)
let ireach slots ~reflexive wid =
  let visited = Util.Bitset.create () in
  if reflexive then ignore (Util.Bitset.add visited wid);
  let q = Queue.create () in
  Queue.push wid q;
  while not (Queue.is_empty q) do
    Option.iter
      (Util.Bitset.iter (fun v -> if Util.Bitset.add visited v then Queue.push v q))
      (Slots.find slots (Queue.pop q))
  done;
  visited

let iancestors st wid = ireach st.iparents ~reflexive:true wid

let idesc_cached st wid =
  match Hashtbl.find_opt st.idesc_cache wid with
  | Some s ->
      st.idesc_hits <- st.idesc_hits + 1;
      s
  | None ->
      st.idesc_misses <- st.idesc_misses + 1;
      let s = ireach st.ichildren ~reflexive:false wid in
      Hashtbl.replace st.idesc_cache wid s;
      s

(* Insert [v] into relation row [i]; [true] when the row grew. *)
let rel_insert slots i v = Util.Bitset.add (Slots.get slots i) v

let iadd_child st ~parent ~child =
  let grew = rel_insert st.ichildren parent child in
  if grew then begin
    ignore (rel_insert st.iparents child parent);
    st.grown.(rix Child) <- true;
    if Hashtbl.length st.idesc_cache > 0 then
      Util.Bitset.iter (fun v -> Hashtbl.remove st.idesc_cache v) (iancestors st parent)
  end

let iadd_view_id st wid raw =
  let sym = Intern.rid st.it raw in
  if rel_insert st.iids wid sym then begin
    ignore (rel_insert st.iby_id sym wid);
    st.grown.(rix Id) <- true
  end

let iadd_holder_root st hid root =
  if Util.Bitset.add st.iholders_seen hid then st.iholder_ids <- hid :: st.iholder_ids;
  if rel_insert st.iroots hid root then st.grown.(rix Root) <- true

let iadd_view_listener st wid entry =
  ignore (rel_insert st.ilisteners wid entry)

(* Inflation runs structurally ([Inflate] writes the graph's memo); a
   fresh instantiation's subtree facts are then imported into the
   id-level stores, in layout order, which is the order their views
   are minted in. *)
let iinflate_at st ~site lid =
  let package = st.iapp.Framework.App.package in
  match Layouts.Package.find_by_layout_id package lid with
  | None -> None
  | Some def ->
      let views, facts =
        Inflate.instantiate st.igraph ~resources:(Layouts.Package.resources package) ~site def
      in
      Option.iter
        (fun (f : Inflate.facts) ->
          let view = Intern.view st.it in
          List.iter
            (fun (parent, child) ->
              let parent = view parent in
              iadd_child st ~parent ~child:(view child))
            f.children;
          List.iter (fun (w, raw) -> iadd_view_id st (view w) raw) f.view_ids;
          (* a fresh subtree always grows both relations it carries *)
          if f.children <> [] then st.grown.(rix Child) <- true;
          if f.view_ids <> [] then st.grown.(rix Id) <- true;
          if f.onclick then st.irc_onclick <- true;
          if f.fragments then st.irc_fragments <- true;
          if f.onclick || f.fragments then st.idecl <- true)
        facts;
      Some (Inflate.root views)

(* Register [target] as a reader of [nid]'s set, under its
   representative: [on_changed] fires with representative ids. *)
let inote_ret st target nid =
  let rid = irep st nid in
  let existing = Option.value (Hashtbl.find_opt st.iret_deps rid) ~default:[] in
  if not (List.mem target existing) then Hashtbl.replace st.iret_deps rid (target :: existing)

(* ------------------------------------------------------------------ *)
(* The rule table, staged.  Each op kind's [Op] entries of
   [Rules.rules] compile once, when the module initialises, into one
   closure over a solve's id rows, and so do its taint entries, if it
   has any; the [Round] entries compile into one closure per pass.
   Entries that share a premise prefix (the table builds them from the
   same premise values) share its loops: each binding of the prefix
   runs the conclusions of the entries ending there, then the longer
   entries, in table order.  Every variable is a
   slot of the solve's preallocated environment ([env]), so binding
   allocates nothing:
   - a points-to premise copies its candidates into its own buffer
     first (the set may grow under the loop, and that growth is the
     op's next application's);
   - a [Desc] premise reads the closure taken once, where the first of
     its two variables was bound: an ancestor's descendants
     ([idesc_cached]) or a descendant's ancestors;
   - a [Callback] mints, per resolved method, the locations the rest
     of its entries use, in order of use, and registers a [Ret] among
     them as a dynamic dependency of the running op.
   So the table's order is the order ops push values, mint ids and
   insert rows in.  A premise shape the table does not use is refused
   when the module initialises. *)

(* A variable's domain: view ids, value ids, value ids of listeners (a
   custom view stands for its allocated object), raw layout ids, raw
   view ids ([id_top] for the ⊤ query). *)
type dom = D_view | D_value | D_listener | D_layout | D_id

let id_top = min_int

(* A variable at compile time: its slot, and the closure later [Desc]
   premises read (fixed once the table is staged). *)
type slot = { ix : int; dom : dom; mutable anchor : [ `None | `Down | `Up ] }

(* A method variable: the locations the entries use, each with its slot. *)
type mslot = { mutable mlocs : (Rules.loc * int) list }

type bound = S of slot | M of mslot

(* The entries of a kind merged on shared premise prefixes. *)
type tnode = { prem : Rules.premise; mutable concl : Rules.conclusion list; mutable kids : tnode list }

let trie entries =
  let rec insert nodes ps concl =
    match ps with
    | [] -> invalid_arg "Solve: an entry without premises"
    | p :: rest ->
        let n, nodes =
          match List.find_opt (fun n -> n.prem == p) nodes with
          | Some n -> (n, nodes)
          | None ->
              let n = { prem = p; concl = []; kids = [] } in
              (n, nodes @ [ n ])
        in
        if rest = [] then n.concl <- n.concl @ concl else n.kids <- insert n.kids rest concl;
        nodes
  in
  List.fold_left (fun nodes (e : Rules.entry) -> insert nodes e.rule.premises e.conclusions) [] entries

let unsupported what = invalid_arg ("Solve: the staged engine has no " ^ what)

(* Staged closures thread the state through rather than capture it,
   so running them allocates nothing. *)
let seq fs =
  let rec run fs st = match fs with [] -> () | f :: rest -> f st; run rest st in
  match fs with [ f ] -> f | fs -> run fs

let rows visit slots i st = match Slots.find slots i with Some row -> Util.Bitset.iter_with visit st row | None -> ()

let vid_of st s =
  let v = st.env.(s.ix) in
  match s.dom with
  | D_view -> Intern.value_of_view_id st.it v
  | D_listener -> (
      match Intern.value_of st.it v with
      | Node.V_view (Node.V_alloc site) -> Intern.value st.it (Node.V_obj site)
      | _ -> v)
  | D_value | D_layout | D_id -> v

let class_of st s =
  match Intern.value_of st.it (vid_of st s) with
  | Node.V_view v -> Some (Node.class_of_view v)
  | Node.V_obj site -> Some site.Node.a_cls
  | Node.V_act a -> Some a
  | _ -> None

let holder_id st s =
  Intern.holder st.it
    (match Intern.value_of st.it st.env.(s.ix) with
    | Node.V_obj site -> Node.H_dialog site
    | Node.V_act a -> Node.H_act a
    | _ -> unsupported "holder of this value")

let listener_of st s =
  match Intern.value_of st.it st.env.(s.ix) with
  | Node.V_obj site | Node.V_view (Node.V_alloc site) -> Node.L_alloc site
  | Node.V_act a -> Node.L_act a
  | _ -> unsupported "listener of this value"

(* Binding [s] to [v] takes the closure later [Desc] premises read. *)
let put st s v =
  st.env.(s.ix) <- v;
  match s.anchor with
  | `None -> ()
  | `Down -> st.clos.(s.ix) <- idesc_cached st v
  | `Up -> st.clos.(s.ix) <- iancestors st v

(* Stage the tries; returns the closures, then the environment's and
   the buffers' sizes. *)
let stage tries =
  let slots = ref 0 and buffers = ref 0 in
  let next r = incr r; !r - 1 in
  let fresh dom = { ix = next slots; dom; anchor = `None } in
  let slot scope x = match List.assoc_opt x scope with Some (S s) -> Some s | _ -> None in
  let bound scope x = match slot scope x with Some s -> s | None -> unsupported ("free " ^ x) in
  let site st = st.iop_site.(st.icur_op).o_site in
  let id_raw = function Node.V_view_id raw -> raw | Node.V_view_id_top -> id_top | _ -> unsupported "constant" in
  let location scope (loc : Rules.loc) =
    match loc with
    | Recv -> fun st -> st.iop_recv.(st.icur_op)
    | Out -> fun st -> st.iop_out.(st.icur_op)
    | Arg k ->
        fun st ->
          let a = st.iop_args.(st.icur_op) in
          if k < Array.length a then a.(k) else -1
    | This m | Param (m, _) | View_param m | Item_param m | Ret m -> (
        match List.assoc_opt m scope with
        | Some (M ms) ->
            let i =
              match List.assoc_opt loc ms.mlocs with
              | Some i -> i
              | None ->
                  let i = next slots in
                  ms.mlocs <- ms.mlocs @ [ (loc, i) ];
                  i
            in
            fun st -> st.env.(i)
        | _ -> unsupported ("method " ^ m))
    | Here -> unsupported "location of an Anywhere entry in an op entry"
  in
  let rec nodes scope ns = seq (List.map (node scope) ns)
  and node scope n =
    premise scope n.prem (fun scope ->
        let concl = List.map (conclude scope) n.concl in
        seq (concl @ [ nodes scope n.kids ]))
  and premises scope ps body =
    match ps with [] -> body scope | p :: rest -> premise scope p (fun scope -> premises scope rest body)
  (* [gen scope x dom body enum]: bind [x] to each value [enum] yields.
     The continuation is compiled first, so the slot's anchor is known
     when it is bound; [gen2] binds two variables at once. *)
  and gen scope x dom body enum =
    let s = fresh dom in
    let k = body ((x, S s) :: scope) in
    enum (fun st v ->
        put st s v;
        k st)
  (* [gen] over relation rows: [enum k st] calls [k st] on each *)
  and gen_rows scope x body enum = gen scope x D_view body enum
  and gen2 scope (x, dx) (y, dy) body enum =
    let sx = fresh dx and sy = fresh dy in
    let k = body ((y, S sy) :: (x, S sx) :: scope) in
    enum (fun st u v ->
        put st sx u;
        put st sy v;
        k st)
  and test scope body cond =
    let k = body scope in
    fun st -> if cond st then k st
  and premise scope (p : Rules.premise) body =
    match p with
    | Gate g -> test scope body (fun st -> g st.iconfig)
    | Any_of cs -> seq (List.map (fun (c : Rules.clause) -> premises scope c.premises body) cs)
    | In (loc, sort, x) -> member scope body (fun st -> st.sols) loc sort x
    | Tainted (loc, sort, x) -> member scope body (fun st -> st.itaints) loc sort x
    | Rel (r, x, y) -> (
        let value s st = st.env.(s.ix) in
        match (r, slot scope x, slot scope y) with
        | Child, Some sx, None -> gen_rows scope y body (fun visit st -> rows visit st.ichildren (value sx st) st)
        | Child, None, Some sy -> gen_rows scope x body (fun visit st -> rows visit st.iparents (value sy st) st)
        | Root, Some sh, None -> gen_rows scope y body (fun visit st -> rows visit st.iroots (holder_id st sh) st)
        | Root, None, None ->
            (* holders in discovery order, each as its own value *)
            gen2 scope (x, D_value) (y, D_view) body (fun k st ->
                List.iter
                  (fun hid ->
                    let self =
                      match Intern.holder_of st.it hid with
                      | Node.H_act a -> Node.V_act a
                      | Node.H_dialog site -> Node.V_obj site
                    in
                    let h = Intern.value st.it self in
                    rows (fun st r -> k st h r) st.iroots hid st)
                  (List.rev st.iholder_ids))
        | Id, None, Some sk ->
            gen_rows scope x body (fun visit st ->
                let raw = value sk st in
                match if raw = id_top then None else Intern.rid_opt st.it raw with
                | Some sym -> rows visit st.iby_id sym st
                | None -> ())
        | Id, Some sd, None when y = "_" ->
            test scope body (fun st ->
                not (Option.fold ~none:true ~some:Util.Bitset.is_empty (Slots.find st.iids (value sd st))))
        | Id, Some sd, Some sk ->
            test scope body (fun st ->
                let raw = value sk st in
                match ((if raw = id_top then None else Intern.rid_opt st.it raw), Slots.find st.iids (value sd st)) with
                | Some sym, Some ids -> Util.Bitset.mem ids sym
                | _ -> false)
        | _ -> unsupported "relation premise of this shape")
    | Desc (refl, a, d) -> (
        (* [x] was bound before [y]: the scope lists the newest first *)
        let rec earlier x y = function
          | (z, _) :: rest -> if z = y then List.mem_assoc x rest else z <> x && earlier x y rest
          | [] -> false
        in
        let anchor s dir =
          if s.anchor <> `None && s.anchor <> dir then unsupported "variable anchored both ways";
          s.anchor <- dir
        in
        match (slot scope a, slot scope d) with
        | Some sa, None ->
            anchor sa `Down;
            gen scope d D_view body (fun k ->
                let below st w = if not (refl && w = st.env.(sa.ix)) then k st w in
                fun st ->
                  if refl then k st st.env.(sa.ix);
                  Util.Bitset.iter_with below st st.clos.(sa.ix))
        | Some sa, Some sd when earlier a d scope ->
            anchor sa `Down;
            test scope body (fun st ->
                (refl && st.env.(sd.ix) = st.env.(sa.ix)) || Util.Bitset.mem st.clos.(sa.ix) st.env.(sd.ix))
        | Some sa, Some sd when refl ->
            anchor sd `Up;
            test scope body (fun st -> Util.Bitset.mem st.clos.(sd.ix) st.env.(sa.ix))
        | _ -> unsupported "descendant premise of this shape")
    | Const (x, c) -> (
        let raw = id_raw c in
        match slot scope x with
        | Some s -> test scope body (fun st -> st.env.(s.ix) = raw)
        | None -> gen scope x D_id body (fun k st -> k st raw))
    | Unlike (x, c) ->
        let s = bound scope x and raw = id_raw c in
        test scope body (fun st -> st.env.(s.ix) <> raw)
    | Layout x ->
        gen scope x D_layout body (fun k st ->
            let package = st.iapp.Framework.App.package in
            let resources = Layouts.Package.resources package in
            List.iter
              (fun (def : Layouts.Layout.def) -> Option.iter (k st) (Layouts.Resource.find_layout_id resources def.name))
              (Layouts.Package.layouts package))
    | Inflate (l, r) ->
        let sl = bound scope l in
        gen scope r D_view body (fun k st ->
            Option.iter (fun root -> k st (Intern.view st.it root)) (iinflate_at st ~site:(site st) st.env.(sl.ix)))
    | Inflated (l, v) ->
        let sl = bound scope l in
        gen scope v D_view body (fun k st ->
            match Layouts.Package.find_by_layout_id st.iapp.Framework.App.package st.env.(sl.ix) with
            | None -> ()
            | Some def ->
                Option.iter
                  (List.iter (fun view -> Option.iter (k st) (Intern.find_view st.it view)))
                  (Graph.find_inflation st.igraph ~site:(site st) ~layout:def.Layouts.Layout.name))
    | Tainted_view _ -> unsupported "tainted-view premise in an op entry"
    | Item x ->
        gen scope x D_view body (fun k st -> k st (Intern.view st.it (Node.V_alloc (Node.menu_item_site (site st)))))
    | Owner (u, a) ->
        let su = bound scope u in
        gen scope a D_value body (fun k st ->
            match Intern.view_of st.it st.env.(su.ix) with
            | Node.V_alloc site -> Option.iter (fun o -> k st (Intern.value st.it (Node.V_act o))) (Node.menu_owner site)
            | Node.V_infl _ -> ())
    | Declared (d, f) ->
        gen2 scope (d, D_view) (f, D_value) body (fun k st ->
            Inflate.iter_memo st.igraph st.iapp.Framework.App.package (fun view n ->
                match (view, n.fragment_class) with
                | Node.V_infl infl, Some cls ->
                    let fragment = Node.V_obj (Node.declared_fragment_site cls infl) in
                    k st (Intern.view st.it view) (Intern.value st.it fragment)
                | _ -> ()))
    | Onclick_view d ->
        gen scope d D_view body (fun k st ->
            Inflate.iter_memo st.igraph st.iapp.Framework.App.package (fun view n ->
                if Option.is_some n.onclick then k st (Intern.view st.it view)))
    | Callback (x, callee, m) ->
        let sx = bound scope x and ms = { mlocs = [] } in
        let k = body ((m, M ms) :: scope) in
        let targets =
          match callee with
          | Named (name, arity) -> Fun.const [ (name, arity, None) ]
          | Handlers i ->
              let hs = List.map (fun (h : Framework.Listeners.handler) -> (h.h_name, h.h_arity, Some h)) i.i_handlers in
              Fun.const hs
          | Onclick d ->
              let sd = bound scope d in
              fun st ->
                let view = Intern.view_of st.it st.env.(sd.ix) in
                Option.fold ~none:[] ~some:(fun n -> [ (n, 1, None) ]) (Inflate.onclick st.iapp.Framework.App.package view)
        in
        let resolved st cls (name, arity, h) =
          match Jir.Hierarchy.resolve st.iapp.Framework.App.hierarchy cls { Jir.Ast.mk_name = name; mk_arity = arity } with
          | None -> ()
          | Some (owner, meth) ->
              let mid = Node.mid_of_meth owner meth in
              let node v = Intern.node st.it (Node.N_var (mid, v)) in
              let param k = Option.fold ~none:(-1) ~some:(fun (p, _) -> node p) (Option.bind k (List.nth_opt meth.m_params)) in
              let handler f = Option.bind h f in
              List.iter
                (fun ((loc : Rules.loc), i) ->
                  st.env.(i) <-
                    (match loc with
                    | This _ -> node Jir.Ast.this_var
                    | Param (_, k) -> param (Some k)
                    | View_param _ -> param (handler (fun h -> h.Framework.Listeners.h_view_param))
                    | Item_param _ -> param (handler (fun h -> h.Framework.Listeners.h_item_param))
                    | Ret _ ->
                        let n = Intern.node st.it (Node.N_ret mid) in
                        inote_ret st (if st.icur_op >= 0 then RD_op st.icur_op else RD_frags) n;
                        n
                    | Recv | Arg _ | Out | Here -> -1))
                ms.mlocs;
              k st
        in
        fun st -> Option.iter (fun cls -> List.iter (resolved st cls) (targets st)) (class_of st sx)
  (* [member scope body rows loc sort x]: a premise over the points-to
     ([sols]) or taint ([itaints]) row of [loc] *)
  and member scope body rows loc sort x =
    let at = location scope loc in
    match (sort, x) with
    | Is v, "_" ->
        test scope body (fun st ->
            let n = at st in
            n >= 0
            &&
            match (Intern.find_value st.it v, Slots.find (rows st) (irep st n)) with
            | Some vid, Some set -> Util.Bitset.mem set vid
            | _ -> false)
    | _ ->
        if slot scope x <> None then unsupported "test of a points-to premise";
        let bi = next buffers in
        let dom =
          match sort with
          | View | Menu -> D_view
          | Layout_id -> D_layout
          | View_id | Id_query -> D_id
          | Listener _ -> D_listener
          | Any | Activity | Obj _ | Is _ -> D_value
        in
        (* add the candidate value [vid] is, if any *)
        let candidate st vid =
          let b = st.bufs.(bi) and h = st.iapp.Framework.App.hierarchy in
          match (sort, Intern.value_of st.it vid) with
          | View, Node.V_view _ -> buf_add b (Intern.view_of_value_id st.it vid)
          | Menu, Node.V_view v when Jir.Hierarchy.subtype h (Node.class_of_view v) "Menu" ->
              buf_add b (Intern.view_of_value_id st.it vid)
          | Layout_id, Node.V_layout_id raw | (View_id | Id_query), Node.V_view_id raw -> buf_add b raw
          | Id_query, Node.V_view_id_top -> buf_add b id_top
          | Any, _ | Activity, Node.V_act _ -> buf_add b vid
          | Is w, v when Node.equal_value v w -> buf_add b vid
          | Obj c, Node.V_obj site when Jir.Hierarchy.subtype h site.Node.a_cls c -> buf_add b vid
          | ( Listener i,
              (Node.V_obj { Node.a_cls = c; _ } | Node.V_act c | Node.V_view (Node.V_alloc { Node.a_cls = c; _ })) )
            when Jir.Hierarchy.subtype h c i ->
              buf_add b vid
          | _ -> ()
        in
        (* the buffer, filled with the candidates *)
        let fill st =
          let b = st.bufs.(bi) in
          b.n <- 0;
          let nid = at st in
          (match if nid >= 0 then Slots.find (rows st) (irep st nid) else None with
          | Some set -> Util.Bitset.iter_with candidate st set
          | None -> ());
          b
        in
        if x = "_" then test scope body (fun st -> (fill st).n > 0)
        else
          gen scope x dom body (fun k st ->
              let b = fill st in
              for i = 0 to b.n - 1 do
                k st b.a.(i)
              done)
  and conclude scope (c : Rules.conclusion) =
    match c with
    | Flow (loc, x) ->
        let at = location scope loc and s = bound scope x in
        fun st ->
          let n = at st in
          if n >= 0 then ipush st n (vid_of st s)
    | Add (r, x, y) -> (
        let sx = bound scope x and sy = bound scope y in
        match r with
        | Child -> fun st -> iadd_child st ~parent:st.env.(sx.ix) ~child:st.env.(sy.ix)
        | Id -> fun st -> iadd_view_id st st.env.(sx.ix) st.env.(sy.ix)
        | Root -> fun st -> iadd_holder_root st (holder_id st sx) st.env.(sy.ix))
    | Listen (v, l, iface) ->
        let sv = bound scope v and sl = bound scope l in
        fun st -> iadd_view_listener st st.env.(sv.ix) (Intern.listener st.it (listener_of st sl, iface))
    | Taint (loc, x) ->
        let at = location scope loc and s = bound scope x in
        fun st ->
          let n = at st in
          if n >= 0 then itaint st n (vid_of st s)
    | Taint_view x ->
        let s = bound scope x in
        fun st -> itaint_view st st.env.(s.ix)
  in
  let staged = List.map (List.map (node [])) tries in
  (staged, !slots, !buffers)

(* A kind's staged entries, its footprint, and its staged taint
   entries, if it has any. *)
type staged_kind = { k_rule : istate -> unit; k_foot : Rules.footprint; k_taint : (istate -> unit) option }

(* Each kind's, by [Framework.Api.kind_index], and the two round passes
   (declarative handlers, declared fragments, in table order). *)
let kinds, rounds, env_size, buffer_count =
  let kinds = Framework.Api.kinds in
  let tries entries = List.map (fun k -> trie (entries k)) kinds in
  let staged, slots, buffers =
    stage ((trie Rules.round_entries :: tries Rules.entries_on) @ tries Rules.taint_entries_on)
  in
  let n = List.length kinds in
  let nth i = List.nth staged i in
  let per_kind =
    List.mapi
      (fun i k ->
        let taint = nth (1 + n + i) in
        {
          k_rule = seq (nth (1 + i));
          k_foot = Rules.footprint k;
          k_taint = (if taint = [] then None else Some (seq taint));
        })
      kinds
  in
  (Array.of_list per_kind, Array.of_list (List.hd staged), slots, buffers)

let of_kind k = kinds.(Framework.Api.kind_index k)

(* The [Anywhere] entries, staged as masks: each taints, at every
   representative, the values of its set in a mask, either fixed
   values (the markers) or the values of the tainted views (the
   lift). *)
let taint_marks, taint_lifts =
  let anywhere (marks, lifts) (e : Rules.entry) =
    let x = match e.conclusions with [ Taint (Here, x) ] -> x | _ -> unsupported "Anywhere conclusion" in
    let rec masks (marks, lifts) = function
      | [ Rules.Any_of cs ] -> List.fold_left (fun acc (c : Rules.clause) -> masks acc c.premises) (marks, lifts) cs
      | [ Rules.In (Here, Is v, y) ] when y = x -> (marks @ [ v ], lifts)
      | [ Rules.In (Here, View, y); Tainted_view z ] when y = x && z = x -> (marks, true)
      | _ -> unsupported "Anywhere premise of this shape"
    in
    masks (marks, lifts) e.rule.premises
  in
  List.fold_left anywhere ([], false) Rules.anywhere_entries

(* Readers index in rep space: a component's set growing must
   reschedule every op reading ANY member of it.  Ops are interned
   during extraction, so their recv/arg ids are always < [csr_n].  A
   counting sort into a CSR over the [csr_n] reps: each rep's count
   summed into the end of its row, then the rows filled backwards,
   last op first, so each row lists its readers in op order (receiver,
   then arguments). *)
let op_readers ~csr_n ~nrep recv args =
  let rrow = Array.make (csr_n + 1) 0 in
  let count nid = rrow.(nrep.(nid)) <- rrow.(nrep.(nid)) + 1 in
  Array.iteri
    (fun oi rid ->
      count rid;
      Array.iter count args.(oi))
    recv;
  for r = 1 to csr_n do
    rrow.(r) <- rrow.(r) + rrow.(r - 1)
  done;
  let rops = Array.make rrow.(csr_n) 0 in
  let note oi nid =
    let r = nrep.(nid) in
    rrow.(r) <- rrow.(r) - 1;
    rops.(rrow.(r)) <- oi
  in
  for oi = Array.length recv - 1 downto 0 do
    let a = args.(oi) in
    for k = Array.length a - 1 downto 0 do
      note oi a.(k)
    done;
    note oi recv.(oi)
  done;
  (rrow, rops)

(* Freeze: snapshot the graph's id-level structures.  Nodes were
   hash-consed as the graph was built, so everything here is integer
   work — no node is hashed again.  [ops] is the graph's op table
   ([Graph.op_table], a shape's [sh_ops]). *)
let ifreeze config app graph ~ops =
  let it = Graph.interner graph in
  let fc = Graph.frozen_flow graph in
  let csr_n = fc.Graph.fc_nodes in
  let nrep = fc.Graph.fc_rep in
  let cast_names = fc.Graph.fc_cast_names in
  let iop_site = Array.map (fun (site, _, _, _) -> site) ops in
  let iop_recv = Array.map (fun (_, rid, _, _) -> rid) ops in
  let iop_args = Array.map (fun (_, _, aids, _) -> aids) ops in
  let iop_out = Array.map (fun (_, _, _, oid) -> oid) ops in
  let op_rrow, op_rops = op_readers ~csr_n ~nrep iop_recv iop_args in
  let per_kind = Array.map (fun (site : Node.op_site) -> of_kind site.o_kind) iop_site in
  let ifoot = Array.map (fun k -> k.k_foot) per_kind in
  let readers = Array.make 3 [] in
  for oi = Array.length iop_site - 1 downto 0 do
    List.iter (fun r -> readers.(rix r) <- oi :: readers.(rix r)) ifoot.(oi).reads
  done;
  {
    iconfig = config;
    iapp = app;
    igraph = graph;
    it;
    csr_n;
    nrep;
    crow = fc.Graph.fc_crow;
    cdst = fc.Graph.fc_cdst;
    ckind = fc.Graph.fc_ckind;
    cast_names;
    cast_memo = Array.init (Array.length cast_names) (fun _ -> Bytes.make 256 '\000');
    iscc_count = fc.Graph.fc_scc_count;
    ilargest_scc = fc.Graph.fc_largest_scc;
    sols = Slots.create ();
    ideltas = Slots.create ();
    free_deltas = [];
    nq = Queue.create ();
    npending = Util.Bitset.create ();
    iop_site;
    iop_recv;
    iop_args;
    iop_out;
    op_rrow;
    op_rops;
    ifoot;
    readers;
    iop_rule = Array.map (fun k -> k.k_rule) per_kind;
    icur_op = -1;
    env = Array.make env_size 0;
    clos = Array.make env_size Util.Bitset.(create ());
    bufs = Array.init buffer_count (fun _ -> { a = [||]; n = 0 });
    iret_deps = Hashtbl.create ~random:false 16;
    ichildren = Slots.create ();
    iparents = Slots.create ();
    idesc_cache = Hashtbl.create 64;
    idesc_hits = 0;
    idesc_misses = 0;
    iids = Slots.create ();
    iby_id = Slots.create ();
    iroots = Slots.create ();
    ilisteners = Slots.create ();
    iholder_ids = [];
    iholders_seen = Util.Bitset.create ();
    grown = Array.make 3 false;
    irc_onclick = false;
    irc_fragments = false;
    idecl = false;
    iwarm = false;
    iprev_sets = [||];
    isets = 0;
    iwords = 0;
    iowned = [];
    irec_writer = -1;
    irec_targets = Array.init (Array.length iop_site + 2) (fun _ -> Util.Bitset.create ());
    itaints = Slots.create ();
    itainted_views = Util.Bitset.create ();
    iwfresh = Util.Bitset.create ();
    ipropagations = 0;
    iop_applications = 0;
    idelta_pushes = 0;
    iunion_calls = 0;
    itaint_rounds = 0;
    itaint_propagations = 0;
    itaint_op_applications = 0;
  }

(* The taint stratum over the points-to fixpoint (DESIGN §15), run
   semi-naively over representative rows: the marker mask once, then
   rounds of the ops' staged taint entries (every op with any at
   first, then the readers [op_rrow] lists of a representative whose
   taint grew), the lift of the views tainted since the last one, and
   taint flow, until nothing is pending.  Points-to no longer moves,
   so each mask needs intersecting with every set only once. *)
let itaint_stratum st =
  let rule oi = (of_kind st.iop_site.(oi).Node.o_kind).k_taint in
  let ops = Queue.create () and pending = Util.Bitset.create () in
  let schedule oi = if Option.is_some (rule oi) && Util.Bitset.add pending oi then Queue.push oi ops in
  let changed rid =
    if rid < st.csr_n then
      for e = st.op_rrow.(rid) to st.op_rrow.(rid + 1) - 1 do
        schedule st.op_rops.(e)
      done
  in
  let lift mask =
    let sets = st.sols.Slots.a in
    for rid = 0 to Array.length sets - 1 do
      match sets.(rid) with Some set -> itaint_inter st rid set mask | None -> ()
    done
  in
  let marks = Util.Bitset.create () in
  List.iter
    (fun v -> Option.iter (fun vid -> ignore (Util.Bitset.add marks vid)) (Intern.find_value st.it v))
    taint_marks;
  lift marks;
  Array.iteri (fun oi _ -> schedule oi) st.iop_site;
  while not (Queue.is_empty ops && Queue.is_empty st.nq && Util.Bitset.is_empty st.iwfresh) do
    st.itaint_rounds <- st.itaint_rounds + 1;
    while not (Queue.is_empty ops) do
      let oi = Queue.pop ops in
      Util.Bitset.remove pending oi;
      st.itaint_op_applications <- st.itaint_op_applications + 1;
      st.icur_op <- oi;
      Option.iter (fun f -> f st) (rule oi)
    done;
    st.icur_op <- -1;
    if taint_lifts && not (Util.Bitset.is_empty st.iwfresh) then lift st.iwfresh;
    Util.Bitset.clear st.iwfresh;
    itaint_propagate st ~changed
  done

(* The solver's rows, installed as the graph's solution store: no
   copy — the captured [solved] aliases the same arrays.  Taint rows
   are node-keyed, each member sharing its representative's row. *)
let isolution st =
  {
    Graph.sol_rep = st.nrep;
    sol_sets = st.sols.Slots.a;
    sol_children = st.ichildren.Slots.a;
    sol_parents = st.iparents.Slots.a;
    sol_ids = st.iids.Slots.a;
    sol_roots = st.iroots.Slots.a;
    sol_listeners = st.ilisteners.Slots.a;
    sol_taints =
      (if Graph.has_top st.igraph then
         Array.init (Intern.node_count st.it) (fun nid -> Slots.find st.itaints (irep st nid))
       else [||]);
  }

(* Points-to has reached its fixpoint: derive the taint stratum, when
   a marker may have let imprecision in, and install the rows. *)
let iinstall st =
  if Graph.has_top st.igraph then itaint_stratum st;
  Graph.set_solution st.igraph (isolution st)

(* The interned fixed-point loop, shared by cold and warm solves.
   [init] performs the mode-specific setup (seeding and scheduling)
   once the worklist plumbing exists; [record] turns on write
   recording (needed whenever the result will be captured as a
   [solved]).  Recording never changes what is pushed, so a recorded
   solve is bit-identical to an unrecorded one. *)
let iloop st ~record ~init config =
  let op_count = Array.length st.iop_site in
  let op_wl = Queue.create () in
  let op_pending = Util.Bitset.create () in
  let schedule oi = if Util.Bitset.add op_pending oi then Queue.push oi op_wl in
  let pending_decl = ref false in
  let pending_frags = ref false in
  (* [on_changed] fires with representative ids (the propagation
     worklist lives in rep space), and dynamic return dependencies are
     registered under the rep too. *)
  let on_changed nid =
    if nid < st.csr_n then
      for e = st.op_rrow.(nid) to st.op_rrow.(nid + 1) - 1 do
        schedule st.op_rops.(e)
      done;
    match Hashtbl.find_opt st.iret_deps nid with
    | Some targets ->
        List.iter (function RD_op oi -> schedule oi | RD_frags -> pending_frags := true) targets
    | None -> ()
  in
  init ~schedule ~on_changed ~pending_decl ~pending_frags;
  let set_writer w = if record then st.irec_writer <- w in
  let iterations = ref 0 in
  let work_remaining () =
    (not (Queue.is_empty op_wl)) || !pending_decl || !pending_frags
  in
  while work_remaining () && !iterations < config.Config.max_iterations do
    incr iterations;
    while not (Queue.is_empty op_wl) do
      let oi = Queue.pop op_wl in
      Util.Bitset.remove op_pending oi;
      st.iop_applications <- st.iop_applications + 1;
      set_writer oi;
      st.icur_op <- oi;
      st.iop_rule.(oi) st;
      set_writer (-1)
    done;
    st.icur_op <- -1;
    (* The passes walk the inflation memo, once it may hold an onClick
       or <fragment> node. *)
    let pass pending i =
      if !pending then begin
        pending := false;
        set_writer (op_count + i);
        if st.idecl then rounds.(i) st;
        set_writer (-1)
      end
    in
    pass pending_decl 0;
    pass pending_frags 1;
    ipropagate st ~changed:on_changed;
    (* schedule the readers of each grown relation; the declarative
       pass reads children and roots *)
    Array.iteri
      (fun r grown ->
        if grown then begin
          st.grown.(r) <- false;
          List.iter schedule st.readers.(r);
          if r <> rix Id then pending_decl := true
        end)
      st.grown;
    if st.irc_onclick then pending_decl := true;
    if st.irc_fragments then pending_frags := true;
    st.irc_onclick <- false;
    st.irc_fragments <- false
  done;
  if work_remaining () then
    Logs.warn (fun m -> m "solver hit the iteration cap (%d); result may be partial" !iterations);
  !iterations

(* Cold start: push every seed, propagate, schedule every op and both
   declarative passes. *)
let icold_init st ~schedule ~on_changed ~pending_decl ~pending_frags =
  pending_decl := true;
  pending_frags := true;
  List.iter
    (fun (nid, values) -> List.iter (fun v -> ipush st nid (Intern.value st.it v)) values)
    (Graph.seeds st.igraph);
  ipropagate st ~changed:on_changed;
  Array.iteri (fun oi _ -> schedule oi) st.iop_site

let istats st ~iterations ~bitset_words ~warm_solve ~dirty_comps ~reused_comps ~fallback =
  {
    iterations;
    propagations = st.ipropagations;
    op_applications = st.iop_applications;
    delta_pushes = st.idelta_pushes;
    desc_cache_hits = st.idesc_hits;
    desc_cache_misses = st.idesc_misses;
    interned_values = Intern.value_count st.it;
    interned_nodes = Intern.node_count st.it;
    bitset_words;
    union_calls = st.iunion_calls;
    scc_count = st.iscc_count;
    largest_scc = st.ilargest_scc;
    ctx_count = Intern.ctx_count st.it;
    ctx_keys = Intern.ctx_key_count st.it;
    warm_solve;
    dirty_comps;
    reused_comps;
    fallback;
    taint_rounds = st.itaint_rounds;
    taint_propagations = st.itaint_propagations;
    taint_op_applications = st.itaint_op_applications;
  }

let run config (app : Framework.App.t) graph =
  Graph.reset_sets graph;
  let st = ifreeze config app graph ~ops:(Graph.op_table graph) in
  let iterations = iloop st ~record:false ~init:(icold_init st) config in
  iinstall st;
  istats st ~iterations ~bitset_words:(Slots.total_words st.sols) ~warm_solve:false ~dirty_comps:0
    ~reused_comps:0 ~fallback:None

(* ------------------------------------------------------------------ *)
(* Incremental re-analysis.

   A solve can be captured as a [solved]: the shape it ran over (flow
   CSR, seeds, ops), the per-representative solution bitsets, relation
   rows, dynamic return dependencies and per-op write targets.  When a
   patched version of the app is extracted over the SAME interner
   (every node, value and view shared with the previous program keeps
   its id), an edit script between the two graph shapes drives a warm
   re-solve: only the condensation components forward-reachable from
   the edits are reset and re-solved; every other component's points-to
   set is restored by aliasing the previous bitset (copy-on-write
   guards it against later growth), and the relation rows are restored
   by copying. *)

(* Fingerprints guarding the warm path.  The class fingerprint covers
   everything CHA and subtype tests depend on; a mismatch forces a full
   solve.  The method fingerprint covers [Hierarchy.resolve] outcomes
   and callback parameter names: adding a handler method changes which
   flows a Set_listener injects WITHOUT changing any of that op's
   inputs, so a mismatch marks every resolve-dependent op suspect
   rather than falling back.  A warm re-solve computes each at most
   once (guard, suspect analysis) and hands them to its capture. *)
let class_fp (app : Framework.App.t) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (c : Jir.Ast.cls) ->
      Buffer.add_string b c.c_name;
      Buffer.add_char b '\x01';
      Buffer.add_string b (match c.c_kind with `Class -> "c" | `Interface -> "i");
      Buffer.add_string b (Option.value c.c_super ~default:"");
      Buffer.add_char b '\x01';
      List.iter
        (fun i ->
          Buffer.add_string b i;
          Buffer.add_char b ',')
        c.c_interfaces;
      Buffer.add_char b '\n')
    (List.sort
       (fun (a : Jir.Ast.cls) (b : Jir.Ast.cls) -> String.compare a.c_name b.c_name)
       app.program.p_classes);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The method fingerprint guards [Hierarchy.resolve] outcomes (which
   methods exist, by class, name and arity) and the parameter names
   callback injection pushes into ([N_var (handler, param)]); body
   edits show up in the extracted graph and are covered by the edit
   script instead.  Classes and methods are hashed in program order — a
   pure reordering flips the fingerprint, which costs a conservative
   suspect pass, never soundness. *)
let small_arities = Array.init 64 string_of_int

let method_fp (app : Framework.App.t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (c : Jir.Ast.cls) ->
      Buffer.add_string b c.c_name;
      Buffer.add_char b '\x01';
      List.iter
        (fun (m : Jir.Ast.meth) ->
          Buffer.add_string b m.m_name;
          Buffer.add_char b '/';
          let a = List.length m.m_params in
          Buffer.add_string b (if a < 64 then small_arities.(a) else string_of_int a);
          List.iter
            (fun (param, _) ->
              Buffer.add_char b ',';
              Buffer.add_string b param)
            m.m_params;
          Buffer.add_char b ';')
        c.c_methods;
      Buffer.add_char b '\n')
    app.program.p_classes;
  Digest.to_hex (Digest.string (Buffer.contents b))

let layout_fp (app : Framework.App.t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (def : Layouts.Layout.def) ->
      Buffer.add_string b def.name;
      Buffer.add_char b '\x01';
      Buffer.add_string b (Fmt.str "%a" Layouts.Layout.pp def);
      Buffer.add_char b '\n')
    (Layouts.Package.layouts app.Framework.App.package);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Equal class keys, position by position, imply an equal class
   fingerprint, and equal method keys an equal method fingerprint: a
   warm patch that edited bodies only compares keys (pointer-equal
   classes skip) instead of hashing the whole program. *)
let same_keys ~methods (p : Jir.Ast.program) (p' : Jir.Ast.program) =
  List.equal
    (fun (c : Jir.Ast.cls) (c' : Jir.Ast.cls) ->
      c == c'
      || Jir.Ast.same_class_key c c'
         && ((not methods) || List.equal Jir.Ast.same_meth_key c.c_methods c'.c_methods))
    p.p_classes p'.p_classes

type shape = {
  sh_nodes : int;  (** nodes covered by the flow CSR *)
  sh_row : int array;
  sh_edst : int array;
  sh_ekind : int array;  (** [-1] direct, else index into [sh_cast_names] *)
  sh_cast_names : string array;
  sh_seeds : (int * int) array;  (** sorted (node id, value id) pairs *)
  sh_ops : (Node.op_site * int * int array * int) array;
}

let shape_with ~ops graph =
  let fc = Graph.frozen_flow graph in
  {
    sh_nodes = fc.Graph.fc_nodes;
    sh_row = fc.Graph.fc_row;
    sh_edst = fc.Graph.fc_edst;
    sh_ekind = fc.Graph.fc_ekind;
    sh_cast_names = fc.Graph.fc_cast_names;
    sh_seeds = Graph.seed_pairs graph;
    sh_ops = ops;
  }

let shape_of_graph graph = shape_with ~ops:(Graph.op_table graph) graph

(* Graph-level edit script between two shapes over a shared interner.
   Edge kinds are expressed in the NEW shape's cast-symbol space
   (removed edges whose cast class vanished get a sentinel [<= -2];
   only the destination matters for invalidation). *)
type edit_script = {
  es_removed_edges : (int * int * int) array;  (** (src, kind, dst) *)
  es_added_edges : (int * int * int) array;
  es_removed_seeds : (int * int) array;
  es_added_seeds : (int * int) array;
  es_old_to_new : int array;  (** old op index -> new, [-1] unmatched (removed) *)
  es_new_to_old : int array;  (** new op index -> old, [-1] unmatched (added) *)
  es_moved : int array option;  (** nodes whose representative changed, when known *)
}

(* A captured solution: the shape it was solved over plus the rows it
   reached.  Treat every field as read-only: the points-to sets are
   shared (aliased) with later warm solves, and every row with
   [sd_graph]'s solution store.  [sd_graph] carries the interner, the
   inflation memo a warm start restores and a snapshot writes, and the
   taint rows. *)
type solved = {
  sd_config : Config.t;
  sd_app_name : string;
  sd_class_fp : string;
  sd_method_fp : string;
  sd_layout_fp : string;
  sd_package : Layouts.Package.t;
  sd_graph : Graph.t;
  sd_node_total : int;  (** interned pool sizes at capture *)
  sd_value_total : int;
  sd_listener_total : int;
  sd_holder_total : int;
  sd_rid_total : int;
  sd_shape : shape;  (** the flow CSR, seeds and ops the solve ran over *)
  sd_solution : Graph.solution;  (** the captured rows; aliased, never mutated *)
  sd_sets : int;  (** points-to sets in [sd_solution] *)
  sd_words : int;  (** their words ([bitset_words]) *)
  sd_by_id : Util.Bitset.t option array;  (** rid sym -> view ids carrying it *)
  sd_holder_ids : int list;  (** discovery order, newest first *)
  sd_ret_deps : (int * rd) list;  (** rep -> dynamic reader *)
  sd_targets : Util.Bitset.t array;
      (** per op (plus declarative and fragment pseudo-slots at
          [|ops|] and [|ops|+1]): representatives the writer pushed
          values to, across this solve and, transitively, the solves
          it warm-started from *)
}

let shape_of_solved sd = sd.sd_shape

let solved_interner sd = Graph.interner sd.sd_graph

let solved_class_fp sd = sd.sd_class_fp

let solved_config sd = sd.sd_config

(* Against the program a capture was extracted from, when its graph
   kept its fragments; a loaded snapshot's did not, and its callers
   hash instead. *)
let solved_keys_match ~methods sd (app : Framework.App.t) =
  match Graph.fragments sd.sd_graph with
  | Some fr -> same_keys ~methods fr.Graph.fr_program app.Framework.App.program
  | None -> false

(* The captured rep map, with the same out-of-range guard as [irep]:
   ids minted after freeze are their own singleton components. *)
let solved_rep sd nid =
  if nid >= 0 && nid < sd.sd_shape.sh_nodes then sd.sd_solution.Graph.sol_rep.(nid) else nid

(* Capture the fixpoint reached by [st] over [shape], the shape of
   [st]'s graph.  [carry] maps each write slot to its previous-solve
   target set (matched ops under a warm solve); carried targets are
   mapped through the current representatives so invalidation stays
   sound across repeated patches. *)
let icapture st ?carry_map ?fps ~shape ~sets ~words ~config ~(app : Framework.App.t) carry =
  let op_count = Array.length st.iop_site in
  (* Carried-over targets are reps of the previous condensation; when
     no representative moved they are still reps, so the merge is a
     word-level union with no per-element remapping — and an op that
     recorded nothing this solve keeps its previous target set by
     aliasing it outright (target sets are never mutated after
     capture). *)
  let sd_targets =
    Array.init (op_count + 2) (fun i ->
        let t = st.irec_targets.(i) in
        match (carry i, carry_map) with
        | Some old, None when Util.Bitset.is_empty t -> old
        | Some old, None ->
            Util.Bitset.union_delta ~into:t old ~on_new:(fun _ -> ());
            t
        | Some old, Some f ->
            Util.Bitset.iter (fun r -> ignore (Util.Bitset.add t (f r))) old;
            t
        | None, _ -> t)
  in
  let sd_ret_deps =
    Hashtbl.fold
      (fun rid targets acc -> List.fold_left (fun acc t -> (rid, t) :: acc) acc targets)
      st.iret_deps []
  in
  (* Warm captures pass the fingerprints through: the guard already
     proved class/layout equal to the previous solve's and the method
     fingerprint was computed for the suspect analysis. *)
  let sd_class_fp, sd_method_fp, sd_layout_fp =
    match fps with Some t -> t | None -> (class_fp app, method_fp app, layout_fp app)
  in
  (* The captured rows alias the solver state's backing stores — the
     state is dead once capture runs, so nothing mutates them later. *)
  {
    sd_config = config;
    sd_app_name = app.Framework.App.name;
    sd_class_fp;
    sd_method_fp;
    sd_layout_fp;
    sd_package = app.Framework.App.package;
    sd_graph = st.igraph;
    sd_node_total = Intern.node_count st.it;
    sd_value_total = Intern.value_count st.it;
    sd_listener_total = Intern.listener_count st.it;
    sd_holder_total = Intern.holder_count st.it;
    sd_rid_total = Intern.rid_count st.it;
    sd_shape = shape;
    sd_solution = Graph.solution st.igraph;
    sd_sets = sets;
    sd_words = words;
    sd_by_id = st.iby_id.Slots.a;
    sd_holder_ids = st.iholder_ids;
    sd_ret_deps;
    sd_targets;
  }

(* Full solve that also captures the solution for later warm restarts;
   bit-identical to [run]. *)
let run_solved ?fallback config (app : Framework.App.t) graph =
  Graph.reset_sets graph;
  let ops = Graph.op_table graph in
  let st = ifreeze config app graph ~ops in
  let iterations = iloop st ~record:true ~init:(icold_init st) config in
  iinstall st;
  let words = Slots.total_words st.sols in
  let stats = istats st ~iterations ~bitset_words:words ~warm_solve:false ~dirty_comps:0 ~reused_comps:0 ~fallback in
  let sets = Array.fold_left (fun n o -> if Option.is_some o then n + 1 else n) 0 st.sols.Slots.a in
  (* the shape after the solve: its seed pairs intern seed values, which
     the solve interns first, in its own order *)
  (stats, icapture st ~shape:(shape_with ~ops graph) ~sets ~words ~config ~app (fun _ -> None))

(* Is a warm start sound?  Returns the reason to fall back, if any. *)
let warm_guard prev config (app : Framework.App.t) graph =
  if not (Graph.interner graph == solved_interner prev) then
    Some "graph was not extracted over the previous solve's interner"
  else if config <> prev.sd_config then Some "configuration changed"
  else if Graph.has_top graph || Graph.has_top prev.sd_graph then
    (* A ⊤ marker makes op effects depend on the whole layout table
       and the whole id index, which the shape diff does not model, so
       sound mode always re-solves from scratch.  The taint stratum is
       not the obstacle: it reads only the final rows, and [iinstall]
       runs it after a warm loop as after a cold one. *)
    Some "unknown-id markers present: sound mode is not warm-startable"
  else if config.Config.inline_depth > 0 then
    (* Context-keyed graphs carry their clone constraints only in the
       id-level stores, so the structural shape diff cannot see them —
       and clone numbers are minted per extraction, so a patched app
       renumbers ⟨node, ctx⟩ keys wholesale.  A cs snapshot therefore
       always re-solves from scratch; test_incremental pins that this
       fallback stays bit-identical. *)
    Some "context-keyed solve: clone constraints are invisible to the shape diff"
  else if (not (solved_keys_match ~methods:false prev app)) && class_fp app <> prev.sd_class_fp then
    Some "class hierarchy changed"
  else if
    (not (app.Framework.App.package == prev.sd_package)) && layout_fp app <> prev.sd_layout_fp
  then Some "layout resources changed"
  else None

(* Warm re-solve against a previous solution.  [graph] must be the
   patched app's graph extracted over [prev]'s interner; [edits] the
   edit script between [shape_of_solved prev] and [shape_of_graph
   graph].  Falls back to a recorded full solve when the warm guard
   refuses.  The result is bit-identical to a from-scratch solve of
   [graph]. *)
let run_incremental ~prev ~edits ?new_shape config (app : Framework.App.t) graph =
  match warm_guard prev config app graph with
  | Some reason -> run_solved ~fallback:reason config app graph
  | None ->
      Graph.reset_sets graph;
      let new_shape = match new_shape with Some s -> s | None -> shape_of_graph graph in
      let st = ifreeze config app graph ~ops:new_shape.sh_ops in
      st.iwarm <- true;
      st.idecl <- true (* the memo may be restored below *);
      let op_count = Array.length st.iop_site in
      let old_op_count = Array.length prev.sd_shape.sh_ops in
      let prev_sol = prev.sd_solution in
      let orep = solved_rep prev in
      let new_method_fp =
        if solved_keys_match ~methods:true prev app then prev.sd_method_fp else method_fp app
      in
      let methods_changed = new_method_fp <> prev.sd_method_fp in
      (* Dirty components: everything forward-reachable (over ALL edge
         kinds of the new condensation) from the edit set. *)
      let dirty = Util.Bitset.create () in
      let frontier = Queue.create () in
      let mark_dirty r = if Util.Bitset.add dirty r then Queue.push r frontier in
      let close () =
        while not (Queue.is_empty frontier) do
          let r = Queue.pop frontier in
          if r < st.csr_n then
            for e = st.crow.(r) to st.crow.(r + 1) - 1 do
              mark_dirty st.cdst.(e)
            done
        done
      in
      (* Components whose membership changed between the two
         condensations (cycle splits and merges): representatives are
         smallest-member ids and new ids are larger, so an unchanged
         component keeps its representative — any moved rep flags both
         the node's new component and its old rep's.  The nodes that
         moved come with the edit script when a delta freeze found
         them; otherwise the two rep maps are compared. *)
      let moved = ref [] in
      let note nid = if nid < prev.sd_node_total && orep nid <> irep st nid then moved := nid :: !moved in
      (match edits.es_moved with
      | Some nodes -> Array.iter note nodes
      | None ->
          for nid = 0 to prev.sd_node_total - 1 do
            note nid
          done);
      let reps_moved = !moved <> [] in
      List.iter
        (fun nid ->
          mark_dirty (irep st nid);
          mark_dirty (irep st (orep nid)))
        !moved;
      Array.iter (fun (_, _, dst) -> mark_dirty (irep st dst)) edits.es_removed_edges;
      Array.iter (fun (nid, _) -> mark_dirty (irep st nid)) edits.es_removed_seeds;
      (* With no representative moved, a previous target set is in the
         new rep space already: word-level union and intersection. *)
      let dirty_old_targets i =
        if reps_moved then Util.Bitset.iter (fun r -> mark_dirty (irep st r)) prev.sd_targets.(i)
        else Util.Bitset.union_delta ~into:dirty prev.sd_targets.(i) ~on_new:(fun r -> Queue.push r frontier)
      in
      let target_dirty i =
        if reps_moved then begin
          let hit = ref false in
          Util.Bitset.iter
            (fun r -> if (not !hit) && Util.Bitset.mem dirty (irep st r) then hit := true)
            prev.sd_targets.(i);
          !hit
        end
        else Util.Bitset.intersects prev.sd_targets.(i) dirty
      in
      (* per relation ([rix]): its rows are rebuilt, not restored *)
      let cleared = Array.make 3 false in
      let children_cleared () = cleared.(rix Child) and roots_cleared () = cleared.(rix Root) in
      let any_cleared = List.exists (fun r -> cleared.(rix r)) in
      let listeners_cleared = ref false in
      (* A suspect or removed writer leaves rows with no justification,
         so the relations its kind writes are rebuilt wholesale. *)
      let clear_for (f : Rules.footprint) =
        List.iter (fun r -> cleared.(rix r) <- true) f.writes;
        if f.listens then listeners_cleared := true
      in
      (* Removed ops: recorded contributions are stale. *)
      Array.iteri
        (fun oj ni ->
          if ni < 0 then begin
            let (site : Node.op_site), _, _, _ = prev.sd_shape.sh_ops.(oj) in
            dirty_old_targets oj;
            clear_for (of_kind site.Node.o_kind).k_foot
          end)
        edits.es_old_to_new;
      (* Old dynamic return dependencies, re-keyed to surviving ops. *)
      let op_ret_reps = Array.make (max 1 op_count) [] in
      let frags_dep_reps = ref [] in
      List.iter
        (fun (r, rdep) ->
          match rdep with
          | RD_op oj ->
              if oj >= 0 && oj < old_op_count then begin
                let oi = edits.es_old_to_new.(oj) in
                if oi >= 0 then op_ret_reps.(oi) <- r :: op_ret_reps.(oi)
              end
          | RD_frags -> frags_dep_reps := r :: !frags_dep_reps)
        prev.sd_ret_deps;
      (* Suspect fixpoint: an op whose inputs (static reads, restored
         return deps, consulted relations, resolve outcomes) may have
         changed gets its old targets dirtied and its written relation
         kinds cleared; clears and new dirt can suspect further ops, so
         iterate with the closure until stable. *)
      let suspect = Util.Bitset.create () in
      let decl_suspect = ref methods_changed in
      let frags_suspect = ref methods_changed in
      let decl_applied = ref false in
      let frags_applied = ref false in
      close ();
      let changed = ref true in
      while !changed do
        changed := false;
        Array.iteri
          (fun oi (f : Rules.footprint) ->
            let oj = edits.es_new_to_old.(oi) in
            if oj >= 0 && not (Util.Bitset.mem suspect oi) then begin
              let sus =
                (methods_changed && f.resolves)
                || Util.Bitset.mem dirty (irep st st.iop_recv.(oi))
                || Array.exists
                     (fun a -> Util.Bitset.mem dirty (irep st a))
                     st.iop_args.(oi)
                || List.exists
                     (fun r -> Util.Bitset.mem dirty (irep st r))
                     op_ret_reps.(oi)
                || any_cleared f.reads
              in
              if sus then begin
                ignore (Util.Bitset.add suspect oi);
                dirty_old_targets oj;
                clear_for f;
                changed := true
              end
            end)
          st.ifoot;
        if (not !decl_suspect) && (children_cleared () || roots_cleared ()) then begin
          decl_suspect := true;
          changed := true
        end;
        if !decl_suspect && not !decl_applied then begin
          decl_applied := true;
          dirty_old_targets old_op_count;
          listeners_cleared := true;
          changed := true
        end;
        if
          (not !frags_suspect)
          && (children_cleared ()
             || List.exists (fun r -> Util.Bitset.mem dirty (irep st r)) !frags_dep_reps)
        then begin
          frags_suspect := true;
          changed := true
        end;
        if !frags_suspect && not !frags_applied then begin
          frags_applied := true;
          dirty_old_targets (old_op_count + 1);
          cleared.(rix Child) <- true;
          changed := true
        end;
        close ()
      done;
      (* Restore: the previous solution's slots, copied, then the dirty
         components' and the moved representatives' cleared.  A slot
         left is the previous set itself, borrowed until a write would
         grow it ([iown_sol]); the previous solution is never written,
         so it still answers for its own generation.  The points-to set
         and word counts follow the slots, so no count walks them. *)
      let prev_sets = prev_sol.sol_sets in
      st.iprev_sets <- prev_sets;
      st.sols.Slots.a <- Array.copy prev_sets;
      st.isets <- prev.sd_sets;
      st.iwords <- prev.sd_words;
      let drop r =
        if r < Array.length prev_sets then
          match prev_sets.(r) with
          | Some b as slot when st.sols.Slots.a.(r) == slot ->
              st.sols.Slots.a.(r) <- None;
              st.isets <- st.isets - 1;
              st.iwords <- st.iwords - Util.Bitset.words b
          | _ -> ()
      in
      Util.Bitset.iter drop dirty;
      List.iter (fun nid -> if irep st nid <> nid then drop nid) !moved;
      let reused = st.isets in
      (* Relation rows are few and small next to the points-to sets:
         restoring copies them, so later growth writes in place. *)
      let restore_rows slots rows =
        Array.iteri
          (fun i o -> Option.iter (fun b -> Slots.set slots i (Util.Bitset.copy b)) o)
          rows
      in
      if not (children_cleared ()) then begin
        restore_rows st.ichildren prev_sol.sol_children;
        restore_rows st.iparents prev_sol.sol_parents
      end;
      if not cleared.(rix Id) then begin
        restore_rows st.iids prev_sol.sol_ids;
        restore_rows st.iby_id prev.sd_by_id
      end;
      if not (roots_cleared ()) then begin
        restore_rows st.iroots prev_sol.sol_roots;
        st.iholder_ids <- prev.sd_holder_ids;
        List.iter (fun hid -> ignore (Util.Bitset.add st.iholders_seen hid)) prev.sd_holder_ids
      end;
      if not !listeners_cleared then restore_rows st.ilisteners prev_sol.sol_listeners;
      (* The inflation memo is restored only when both children and
         ids survive: a memo hit skips the id-level subtree import,
         which is exactly what a suspect inflating op would need to
         redo — and any such op clears children. *)
      if not (children_cleared () || cleared.(rix Id)) then
        List.iter
          (fun (site, layout, views) -> Graph.record_inflation graph ~site ~layout views)
          (Graph.inflation_entries prev.sd_graph);
      let iwarm_init ~schedule ~on_changed ~pending_decl ~pending_frags =
        List.iter
          (fun (r, rdep) ->
            match rdep with
            | RD_op oj ->
                if oj >= 0 && oj < old_op_count then begin
                  let oi = edits.es_old_to_new.(oj) in
                  if oi >= 0 then inote_ret st (RD_op oi) r
                end
            | RD_frags -> inote_ret st RD_frags r)
          prev.sd_ret_deps;
        (* Seeds of dirty components refill their reset sets; seeds of
           unrestored (fresh) components fill them for the first time.
           Seeds of restored components are already present — their
           push would be a mem no-op — so they are skipped outright
           rather than paying an interner lookup each. *)
        Array.iter
          (fun (nid, vid) ->
            let r = irep st nid in
            if Util.Bitset.mem dirty r || not (iborrowed st r) then ipush st nid vid)
          new_shape.sh_seeds;
        (* ... except an added seed: its value is new to the restored
           set, and pushing it turns the borrowed set into an owned,
           delta-emitting copy.  Which seeds land in restored sets is
           settled before the first push, which clears its set's
           borrowed mark: a second added seed into the same set must
           be pushed too. *)
        List.iter
          (fun (nid, vid) -> ipush st nid vid)
          (List.filter
             (fun (nid, _) ->
               let r = irep st nid in
               iborrowed st r && not (Util.Bitset.mem dirty r))
             (Array.to_list edits.es_added_seeds));
        (* Restored components never emit deltas, so their outflow must
           be injected once: into dirty successors (reset to empty),
           and through edges that did not exist before.  Later growth
           of a restored set turns it into an owned, delta-emitting
           copy, so only the restored portion needs this.  One pass
           over the condensed edges, by ascending source; with no
           dirty components there is nowhere to inject. *)
        if not (Util.Bitset.is_empty dirty) then begin
          let mask = Bytes.make st.csr_n '\000' in
          Util.Bitset.iter (fun r -> if r < st.csr_n then Bytes.unsafe_set mask r '\001') dirty;
          for r = 0 to st.csr_n - 1 do
            for e = st.crow.(r) to st.crow.(r + 1) - 1 do
              let dst = st.cdst.(e) in
              if Bytes.unsafe_get mask dst <> '\000' then
                match Slots.find st.sols r with
                | Some set as slot when borrowed st r slot ->
                    let k = st.ckind.(e) in
                    Util.Bitset.iter (fun vid -> if k < 0 || cast_passes st k vid then ipush st dst vid) set
                | _ -> ()
            done
          done
        end;
        Array.iter
          (fun (src, k, dst) ->
            let rsrc = irep st src in
            if not (Util.Bitset.mem dirty rsrc) then
              match Slots.find st.sols rsrc with
              | None -> ()
              | Some set ->
                  Util.Bitset.iter
                    (fun vid -> if k < 0 || cast_passes st k vid then ipush st dst vid)
                    set)
          edits.es_added_edges;
        (* Schedule: added ops, suspects, writers of rebuilt relation
           kinds and ops whose previous targets were reset. *)
        Array.iteri
          (fun oi (f : Rules.footprint) ->
            let oj = edits.es_new_to_old.(oi) in
            let rerun =
              oj < 0
              || Util.Bitset.mem suspect oi
              || any_cleared f.writes
              || (!listeners_cleared && f.listens)
              || target_dirty oj
            in
            if rerun then schedule oi)
          st.ifoot;
        pending_decl :=
          !decl_suspect || !listeners_cleared || roots_cleared () || target_dirty old_op_count;
        pending_frags :=
          !frags_suspect || children_cleared () || target_dirty (old_op_count + 1);
        ipropagate st ~changed:on_changed
      in
      let iterations = iloop st ~record:true ~init:iwarm_init config in
      iinstall st;
      (* the words of the sets created or taken over, at their final size *)
      let words =
        List.fold_left
          (fun acc r -> match Slots.find st.sols r with Some b -> acc + Util.Bitset.words b | None -> acc)
          st.iwords st.iowned
      in
      let stats =
        istats st ~iterations ~bitset_words:words ~warm_solve:true ~dirty_comps:(Util.Bitset.cardinal dirty)
          ~reused_comps:reused ~fallback:None
      in
      let carry i =
        if i < op_count then begin
          let oj = edits.es_new_to_old.(i) in
          if oj >= 0 then Some prev.sd_targets.(oj) else None
        end
        else if i = op_count then Some prev.sd_targets.(old_op_count)
        else Some prev.sd_targets.(old_op_count + 1)
      in
      let carry_map = if reps_moved then Some (irep st) else None in
      let sd =
        icapture st ?carry_map
          ~fps:(prev.sd_class_fp, new_method_fp, prev.sd_layout_fp)
          ~shape:new_shape ~sets:st.isets ~words ~config ~app carry
      in
      (stats, sd)
