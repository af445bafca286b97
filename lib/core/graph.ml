type edge_kind = E_direct | E_cast of string

module Alloc_seen = Hashtbl.Make (struct
  type t = Node.alloc_site

  let equal a b = Node.compare_alloc a b = 0

  let hash = Node.hash_alloc
end)

type op = { site : Node.op_site; op_recv : Node.t; op_args : Node.t list; op_out : Node.t option }

(* Frozen flow snapshot: the full CSR plus the SCC condensation of its
   direct-edge subgraph.  Nodes minted after the snapshot ([fc_nodes])
   are implicitly singleton components with no edges. *)
type flow_csr = {
  fc_nodes : int;
  fc_row : int array;
  fc_edst : int array;
  fc_ekind : int array;
  fc_cast_names : string array;
  fc_rep : int array;
  fc_crow : int array;
  fc_cdst : int array;
  fc_ckind : int array;
  fc_scc_count : int;
  fc_largest_scc : int;
}

(* The solution store: the solver's id-level rows, read in place. *)
type rows = Util.Bitset.t option array

type solution = {
  sol_rep : int array;
  sol_sets : rows;
  sol_children : rows;
  sol_parents : rows;
  sol_ids : rows;
  sol_roots : rows;
  sol_listeners : rows;
  sol_taints : rows;
}

let empty_solution =
  {
    sol_rep = [||];
    sol_sets = [||];
    sol_children = [||];
    sol_parents = [||];
    sol_ids = [||];
    sol_roots = [||];
    sol_listeners = [||];
    sol_taints = [||];
  }

(* A range of some graph's edge arrays. *)
type seg = { g_src : int array; g_kind : int array; g_dst : int array; g_lo : int; g_len : int }

(* Positions in the four extraction logs. *)
type cursor = { c_edges : int; c_seeds : int; c_allocs : int; c_ops : int }

type fragments = {
  fr_program : Jir.Ast.program;
  fr_starts : cursor array;
  fr_dialogs : int;
  fr_counts : int * int;
}

type t = {
  g_it : Intern.t;
      (** hash-consing interner: every node touched by an edge, seed,
          or op gets a dense id at construction time, so the interned
          solver's freeze step is pure integer work *)
  (* The extraction logs: every constraint extraction emitted, in
     emission order, over interned ids.  The edge log keeps repeated
     edges (the freeze deduplicates), so a slice of it replays exactly
     as the statements that emitted it would.  It is [e_segs] — ranges
     of other graphs' edge arrays that {!replay} shares instead of
     copying — followed by the graph's own entries. *)
  mutable e_segs : seg list;  (** shared ranges, newest first *)
  mutable e_sealed : int;  (** entries in [e_segs] *)
  mutable e_src : int array;  (** own entries, from index 0 *)
  mutable e_kind : int array;  (** cast sym or [-1] *)
  mutable e_dst : int array;
  mutable e_n : int;  (** every entry: shared, then own *)
  mutable e_cover : int;
      (** one past the largest logged endpoint: {!add_edge_ids} takes
          ids as given, so an edge may name an id the interner never
          minted, and the CSR must still cover it *)
  mutable s_node : int array;  (** seed log: node id ... *)
  mutable s_value : Node.value array;  (** ... and its value ... *)
  mutable s_vid : int array;
      (** ... and that value's interned id, [-1] until {!seed_pairs}
          first interns it; a replay carries the ids along *)
  mutable s_n : int;
  mutable a_log : Node.alloc_site array;  (** distinct allocation sites *)
  mutable a_n : int;
  alloc_seen : unit Alloc_seen.t;
      (** the sites {!add_alloc} logged; a {!replay}ed range bypasses
          it (see there) *)
  mutable o_log : op array;
  mutable o_ids : (int * int array * int) array;  (** per op: (recv id, arg ids, out id or -1) *)
  mutable o_n : int;
  mutable fragments : fragments option;
  mutable has_clone_edges : bool;
      (** {!add_edge_ids} ran: some edge may touch a context clone *)
  icast_tbl : (string, int) Hashtbl.t;  (** cast class -> dense sym *)
  mutable icast_names : string array;  (** cast sym -> class; grown by doubling *)
  mutable frozen : (int * flow_csr) option;
      (** CSR snapshot memo, keyed by the edge-log length it was built
          at; flow edges only grow during extraction, so re-solving
          reuses the frozen arrays *)
  mutable sol : solution;  (** the last solve's id-level solution *)
  mutable read_index : Node.value list array option;  (** {!read_index}'s memo, dropped with [sol] *)
  inflations : (Node.site * string, Node.view_abs list) Hashtbl.t;
      (** the inflation memo: (site, layout) -> minted views, in the
          layout's preorder; unseeded, as its fold orders the exported
          view list *)
  mutable g_has_top : bool;
      (** some seed introduced an unknown-id marker ([V_layout_top] /
          [V_view_id_top]); the warm guard refuses incremental starts
          over such graphs *)
}

(* [?interner] lets an incremental re-extraction mint ids in a
   pre-populated pool: every node/value/view already known from the
   previous solve keeps its id, so the warm solver can alias the old
   per-representative bitsets instead of translating them. *)
let create ?interner () =
  {
    g_it = (match interner with Some it -> it | None -> Intern.create ());
    e_segs = [];
    e_sealed = 0;
    e_src = [||];
    e_kind = [||];
    e_dst = [||];
    e_n = 0;
    e_cover = 0;
    s_node = [||];
    s_value = [||];
    s_vid = [||];
    s_n = 0;
    a_log = [||];
    a_n = 0;
    alloc_seen = Alloc_seen.create 64;
    o_log = [||];
    o_ids = [||];
    o_n = 0;
    fragments = None;
    has_clone_edges = false;
    icast_tbl = Hashtbl.create 8;
    icast_names = [||];
    frozen = None;
    sol = empty_solution;
    read_index = None;
    inflations = Hashtbl.create ~random:false 16;
    g_has_top = false;
  }

(* [arr], holding [used] entries, with room for [need]: logs grow by
   doubling, padded with [fill]. *)
let reserve arr used need fill =
  if need <= Array.length arr then arr
  else begin
    let grown = Array.make (max 64 (max need (2 * Array.length arr))) fill in
    Array.blit arr 0 grown 0 used;
    grown
  end

(* Room for one more log entry at [n]. *)
let room arr n fill = reserve arr n (n + 1) fill

let add_alloc t alloc =
  if not (Alloc_seen.mem t.alloc_seen alloc) then begin
    Alloc_seen.add t.alloc_seen alloc ();
    t.a_log <- room t.a_log t.a_n alloc;
    t.a_log.(t.a_n) <- alloc;
    t.a_n <- t.a_n + 1
  end

(* Idempotent per site: inlined clones of a statement denote the same
   allocation abstraction.  The dedup table ([alloc_seen]) is part of
   the graph, so concurrent extractions on separate domains — each
   owning its own graph — cannot interleave allocation lists. *)
let fresh_alloc t ~cls ~site =
  let alloc = { Node.a_site = site; a_cls = cls } in
  add_alloc t alloc;
  alloc

let interner t = t.g_it

let node_id t node = Intern.node t.g_it node

let cast_sym t cls =
  match Hashtbl.find_opt t.icast_tbl cls with
  | Some sym -> sym
  | None ->
      let sym = Hashtbl.length t.icast_tbl in
      Hashtbl.add t.icast_tbl cls sym;
      let n = Array.length t.icast_names in
      if sym >= n then begin
        let grown = Array.make (max 8 (2 * n)) "" in
        Array.blit t.icast_names 0 grown 0 n;
        t.icast_names <- grown
      end;
      t.icast_names.(sym) <- cls;
      sym

let kind_of_sym t k = if k < 0 then E_direct else E_cast t.icast_names.(k)

let push_op t op ids =
  t.o_log <- room t.o_log t.o_n op;
  t.o_ids <- room t.o_ids t.o_n ids;
  t.o_log.(t.o_n) <- op;
  t.o_ids.(t.o_n) <- ids;
  t.o_n <- t.o_n + 1

let fresh_op t ~kind ~site ~recv ~args ~out =
  let op = { site = { Node.o_site = site; o_kind = kind }; op_recv = recv; op_args = args; op_out = out } in
  let rid = node_id t recv in
  let aids = Array.of_list (List.map (node_id t) args) in
  let oid = match out with Some n -> node_id t n | None -> -1 in
  push_op t op (rid, aids, oid);
  op

let push_edge t sid ksym did =
  let n = t.e_n - t.e_sealed in
  if n = Array.length t.e_src then begin
    t.e_src <- room t.e_src n 0;
    t.e_kind <- room t.e_kind n 0;
    t.e_dst <- room t.e_dst n 0
  end;
  t.e_src.(n) <- sid;
  t.e_kind.(n) <- ksym;
  t.e_dst.(n) <- did;
  t.e_n <- t.e_n + 1;
  let top = max sid did in
  if top >= t.e_cover then t.e_cover <- top + 1

let add_edge t ?(kind = E_direct) src dst =
  let sid = node_id t src and did = node_id t dst in
  let ksym = match kind with E_direct -> -1 | E_cast cls -> cast_sym t cls in
  push_edge t sid ksym did

let seed_id t nid value =
  (match value with
  | Node.V_layout_top | Node.V_view_id_top -> t.g_has_top <- true
  | _ -> ());
  t.s_node <- room t.s_node t.s_n 0;
  t.s_value <- room t.s_value t.s_n value;
  t.s_vid <- room t.s_vid t.s_n 0;
  t.s_node.(t.s_n) <- nid;
  t.s_value.(t.s_n) <- value;
  t.s_vid.(t.s_n) <- -1;
  t.s_n <- t.s_n + 1

let seed t node value = seed_id t (node_id t node) value

(* A seed's value id: interned (hashed) once per log entry, and a
   replayed entry brings its id along. *)
let seed_vid t i =
  if t.s_vid.(i) < 0 then t.s_vid.(i) <- Intern.value t.g_it t.s_value.(i);
  t.s_vid.(i)

let seed_ids_at t i = (t.s_node.(i), seed_vid t i)

(* Seeds as sorted, deduplicated (node id, value id) pairs, sorted as
   packed ints. *)
let seed_pairs t =
  let keys = Array.init t.s_n (fun i -> Intern.pack t.s_node.(i) (seed_vid t i)) in
  Array.sort Int.compare keys;
  let pairs = ref [] in
  for i = Array.length keys - 1 downto 0 do
    if i = 0 || keys.(i) <> keys.(i - 1) then
      pairs := (keys.(i) lsr Intern.pack_bits, keys.(i) land ((1 lsl Intern.pack_bits) - 1)) :: !pairs
  done;
  Array.of_list !pairs

let has_top t = t.g_has_top

(* Id-level emission (context-keyed extraction).  Every clone-body
   edge touches a context clone ({!Intern.ctx_node} marks them), and no
   structural edge of the same extraction does: the structural walk
   never renames.  The frozen CSR is laid out from the edge log, so
   the interned solver sees the context-expanded flow graph, while the
   structural views ([succs], [locations], [Reader.pp_dot]) hide the edges
   that touch a clone and stay context-insensitive; the clone rows are
   read from the solution store like any other node's. *)
let add_edge_ids t ?(kind = E_direct) sid did =
  ignore (Intern.pack sid did);
  let ksym = match kind with E_direct -> -1 | E_cast cls -> cast_sym t cls in
  push_edge t sid ksym did;
  t.has_clone_edges <- true

(* The op record still carries structural nodes (decoded from the ids,
   so clone receivers surface with their [$n]-suffixed names exactly as
   the inlining path records them); the id triple is logged without
   re-interning. *)
let fresh_op_ids t ~kind ~site ~recv ~args ~out =
  let node_of id = Intern.node_of t.g_it id in
  let op =
    {
      site = { Node.o_site = site; o_kind = kind };
      op_recv = node_of recv;
      op_args = List.map node_of args;
      op_out = Option.map node_of out;
    }
  in
  push_op t op (recv, Array.of_list args, Option.value out ~default:(-1));
  op

(* ------------------------------------------------------------------ *)
(* Fragments: per-method slices of the logs *)

let cursor t = { c_edges = t.e_n; c_seeds = t.s_n; c_allocs = t.a_n; c_ops = t.o_n }

let fragments t = t.fragments

let set_fragments t fr = t.fragments <- Some fr

let blit_log src lo dst used n fill =
  let dst = reserve dst used (used + n) fill in
  Array.blit src lo dst used n;
  dst

(* [Array.blit] and [Array.init] store through the write barrier once
   the target lives in the major heap; over [int array]s a typed loop
   stores directly, several times faster at the sizes of a log or a
   CSR. *)
let blit_ints (src : int array) so (dst : int array) d len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst (d + i) (Array.unsafe_get src (so + i))
  done

let reserve_ints (arr : int array) used need =
  if need <= Array.length arr then arr
  else begin
    let grown = Array.make (max 64 (max need (2 * Array.length arr))) 0 in
    blit_ints arr 0 grown 0 used;
    grown
  end

(* The edge log's range [\[lo, hi)] as ranges of arrays, in order. *)
let pieces t lo hi =
  let own = { g_src = t.e_src; g_kind = t.e_kind; g_dst = t.e_dst; g_lo = 0; g_len = t.e_n - t.e_sealed } in
  let clip (at, acc) g =
    let a = max lo at and b = min hi (at + g.g_len) in
    (at + g.g_len, if a < b then { g with g_lo = g.g_lo + a - at; g_len = b - a } :: acc else acc)
  in
  let _, acc = List.fold_left clip (0, []) (List.rev (own :: t.e_segs)) in
  List.rev acc

let iter_pieces t lo hi f = List.iter f (pieces t lo hi)

(* The own entries, with room for [n] more. *)
let own_room t n =
  let used = t.e_n - t.e_sealed in
  t.e_src <- reserve_ints t.e_src used (used + n);
  t.e_kind <- reserve_ints t.e_kind used (used + n);
  t.e_dst <- reserve_ints t.e_dst used (used + n)

(* Close the own entries into a shared range; later own entries go to
   fresh arrays, so a shared range is never written again. *)
let seal t =
  let own = t.e_n - t.e_sealed in
  if own > 0 then begin
    t.e_segs <- { g_src = t.e_src; g_kind = t.e_kind; g_dst = t.e_dst; g_lo = 0; g_len = own } :: t.e_segs;
    t.e_sealed <- t.e_n;
    t.e_src <- [||];
    t.e_kind <- [||];
    t.e_dst <- [||]
  end

(* Append [from]'s edge log range [\[lo, hi)], as if the statements
   that emitted it ran again over [t]: cast syms go through [t]'s
   table in log order, so they number exactly as a fresh extraction
   numbers them.  A range whose syms keep their numbers is shared;
   one that renumbers is copied with its kinds mapped.  Sharing stops
   at [max_segs] ranges: past it [from]'s log is copied, which leaves
   [t] one own range.  At inline depth 0 (the only depth that records
   fragments) every endpoint is an interned id, so [from]'s cover
   bounds the range's and [covered] does not move. *)
let max_segs = 8

let replay_edges t ~from lo hi =
  let tr = Array.make (Hashtbl.length from.icast_tbl) (-1) in
  let sym k =
    if tr.(k) < 0 then tr.(k) <- cast_sym t from.icast_names.(k);
    tr.(k)
  in
  iter_pieces from lo hi (fun g ->
      let kept = ref true in
      if Array.length tr > 0 then
        for e = g.g_lo to g.g_lo + g.g_len - 1 do
          let k = g.g_kind.(e) in
          if k >= 0 && sym k <> k then kept := false
        done;
      if !kept && List.compare_length_with from.e_segs max_segs < 0 then begin
        seal t;
        t.e_segs <- g :: t.e_segs;
        t.e_sealed <- t.e_sealed + g.g_len;
        t.e_n <- t.e_n + g.g_len
      end
      else begin
        own_room t g.g_len;
        let n = t.e_n - t.e_sealed in
        blit_ints g.g_src g.g_lo t.e_src n g.g_len;
        blit_ints g.g_dst g.g_lo t.e_dst n g.g_len;
        for e = 0 to g.g_len - 1 do
          let k = g.g_kind.(g.g_lo + e) in
          t.e_kind.(n + e) <- (if k < 0 then k else sym k)
        done;
        t.e_n <- t.e_n + g.g_len
      end);
  if from.e_cover > t.e_cover then t.e_cover <- from.e_cover

(* Append the slice [lo, hi) of [from]'s logs, as if the statements
   that emitted it ran again over [t]: the edge range is shared
   ([replay_edges]), the other logs' ranges are blitted.  The
   allocation sites skip [alloc_seen]: a depth-0 site names its
   method's statement, so no other method mints it. *)
let replay t ~from lo hi =
  replay_edges t ~from lo.c_edges hi.c_edges;
  let ns = hi.c_seeds - lo.c_seeds in
  if ns > 0 then begin
    t.s_node <- blit_log from.s_node lo.c_seeds t.s_node t.s_n ns 0;
    t.s_vid <- blit_log from.s_vid lo.c_seeds t.s_vid t.s_n ns 0;
    t.s_value <- blit_log from.s_value lo.c_seeds t.s_value t.s_n ns from.s_value.(lo.c_seeds);
    t.s_n <- t.s_n + ns;
    if from.g_has_top then
      for i = lo.c_seeds to hi.c_seeds - 1 do
        match from.s_value.(i) with Node.V_layout_top | Node.V_view_id_top -> t.g_has_top <- true | _ -> ()
      done
  end;
  let na = hi.c_allocs - lo.c_allocs in
  if na > 0 then begin
    t.a_log <- blit_log from.a_log lo.c_allocs t.a_log t.a_n na from.a_log.(lo.c_allocs);
    t.a_n <- t.a_n + na
  end;
  let no = hi.c_ops - lo.c_ops in
  if no > 0 then begin
    t.o_log <- blit_log from.o_log lo.c_ops t.o_log t.o_n no from.o_log.(lo.c_ops);
    t.o_ids <- blit_log from.o_ids lo.c_ops t.o_ids t.o_n no from.o_ids.(lo.c_ops);
    t.o_n <- t.o_n + no
  end

(* Position [at] of [from]'s logs, for a slice of them replayed into
   another graph at [base]: [base] plus [at]'s distance from [lo]. *)
let shift ~base ~lo at =
  {
    c_edges = base.c_edges + at.c_edges - lo.c_edges;
    c_seeds = base.c_seeds + at.c_seeds - lo.c_seeds;
    c_allocs = base.c_allocs + at.c_allocs - lo.c_allocs;
    c_ops = base.c_ops + at.c_ops - lo.c_ops;
  }

let seed_at t i = (t.s_node.(i), t.s_value.(i))

let alloc_at t i = t.a_log.(i)

let cast_names t = Array.sub t.icast_names 0 (Hashtbl.length t.icast_tbl)

(* Iterative Tarjan over the direct-edge subgraph ([ekind < 0]).  Cast
   edges are excluded: they filter, and collapsing a cast into a shared
   component set would let unfiltered values lap the filter.  Returns
   the node -> representative map (the smallest member id, so the
   choice is deterministic independently of traversal details), the
   component count, and the largest component size. *)
let condense_direct n row edst ekind =
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let tstack = Array.make n 0 in
  let tsp = ref 0 in
  (* explicit DFS frames: node + next-edge cursor *)
  let dfs_v = Array.make n 0 in
  let dfs_e = Array.make n 0 in
  let dsp = ref 0 in
  let counter = ref 0 in
  let rep = Array.make n 0 in
  let scc_count = ref 0 in
  let largest = ref 0 in
  let push v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    tstack.(!tsp) <- v;
    incr tsp;
    on_stack.(v) <- true;
    dfs_v.(!dsp) <- v;
    dfs_e.(!dsp) <- row.(v);
    incr dsp
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      push root;
      while !dsp > 0 do
        let v = dfs_v.(!dsp - 1) in
        let e = dfs_e.(!dsp - 1) in
        if e < row.(v + 1) then begin
          dfs_e.(!dsp - 1) <- e + 1;
          if ekind.(e) < 0 then begin
            let w = edst.(e) in
            if index.(w) < 0 then push w
            else if on_stack.(w) && index.(w) < low.(v) then low.(v) <- index.(w)
          end
        end
        else begin
          decr dsp;
          if !dsp > 0 then begin
            let parent = dfs_v.(!dsp - 1) in
            if low.(v) < low.(parent) then low.(parent) <- low.(v)
          end;
          if low.(v) = index.(v) then begin
            incr scc_count;
            let size = ref 0 in
            let min_id = ref v in
            let more = ref true in
            while !more do
              decr tsp;
              let w = tstack.(!tsp) in
              on_stack.(w) <- false;
              rep.(w) <- v;
              incr size;
              if w < !min_id then min_id := w;
              if w = v then more := false
            done;
            if !size > !largest then largest := !size;
            (* [low] of a finished root is never read by the DFS again;
               reuse it to carry root -> smallest member. *)
            low.(v) <- !min_id
          end
        end
      done
    end
  done;
  for v = 0 to n - 1 do
    rep.(v) <- low.(rep.(v))
  done;
  (rep, !scc_count, !largest)

(* Deduplication within one CSR row at a time, rows in ascending
   order: a direct edge is seen when its destination's stamp names the
   row (so the stamps never need clearing), and the rare cast edges go
   through a table keyed by the packed (row, destination) pair. *)
type dedup = { stamp : int array; casts : (int, int list) Hashtbl.t }

let dedup n = { stamp = Array.make n (-1); casts = Hashtbl.create 16 }

let fresh_in_row d row k dst =
  if k < 0 then d.stamp.(dst) <> row && (d.stamp.(dst) <- row; true)
  else
    let key = Intern.pack row dst in
    match Hashtbl.find_opt d.casts key with
    | None ->
        Hashtbl.add d.casts key [ k ];
        true
    | Some ks -> (not (List.mem k ks)) && (Hashtbl.replace d.casts key (k :: ks); true)

(* Condensed CSR: every edge mapped through [rep], intra-component
   edges dropped (direct ones are subsumed by the shared component set;
   a cast edge inside a direct cycle only re-adds a subset of what the
   direct path already carries), duplicates merged.  Each
   representative's members are bucketed in ascending order, so its
   row lists its edges first-seen over (member, edge) order — the order
   a single pass over every node's edges would give. *)
let build_condensed n row edst ekind rep =
  let mrow = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    mrow.(rep.(u) + 1) <- mrow.(rep.(u) + 1) + 1
  done;
  for r = 0 to n - 1 do
    mrow.(r + 1) <- mrow.(r) + mrow.(r + 1)
  done;
  let members = Array.make n 0 in
  let fill = Array.sub mrow 0 n in
  for u = 0 to n - 1 do
    let r = rep.(u) in
    members.(fill.(r)) <- u;
    fill.(r) <- fill.(r) + 1
  done;
  let crow = Array.make (n + 1) 0 in
  let cdst = Array.make row.(n) 0 and ckind = Array.make row.(n) (-1) in
  let d = dedup n in
  let w = ref 0 in
  for r = 0 to n - 1 do
    crow.(r) <- !w;
    for i = mrow.(r) to mrow.(r + 1) - 1 do
      let u = members.(i) in
      for e = row.(u) to row.(u + 1) - 1 do
        let rv = rep.(edst.(e)) in
        if rv <> r then begin
          let k = ekind.(e) in
          if fresh_in_row d r k rv then begin
            cdst.(!w) <- rv;
            ckind.(!w) <- k;
            incr w
          end
        end
      done
    done
  done;
  crow.(n) <- !w;
  (crow, Array.sub cdst 0 !w, Array.sub ckind 0 !w)

(* Copy-chain substitution over context clones (offline variable
   substitution, restricted to ids {!Intern.is_ctx_clone} certifies
   as flow-only).  A clone variable with exactly one incoming direct
   edge, no incoming cast edge, no seed and no op writing it provably
   saturates to its predecessor's set, so it needs no bitset of its
   own: its rep is patched to the chain root's and the defining edge
   disappears from the condensed CSR.  Context expansion mass-produces
   exactly this shape (recv → this$n, arg → param$n, ret$n → out), so
   the solve over the expanded graph collapses back towards the
   context-insensitive size.  Every clone node still reads a solution
   (its root's row, through [fc_rep]), keeping the result bit-identical
   to the inlining path; an interner that minted no context key has no
   clone ids and skips this entirely.  Candidates are visited in mint
   order, so a pure copy cycle demotes its first-minted member. *)
let clone_subst t n row edst ekind =
  if Intern.ctx_key_count t.g_it = 0 then None
  else begin
    let direct_in = Array.make n 0 in
    let cast_in = Array.make n false in
    let pred = Array.make n (-1) in
    for i = 0 to n - 1 do
      for e = row.(i) to row.(i + 1) - 1 do
        let d = edst.(e) in
        if ekind.(e) < 0 then begin
          direct_in.(d) <- direct_in.(d) + 1;
          pred.(d) <- i
        end
        else cast_in.(d) <- true
      done
    done;
    let blocked = Array.make n false in
    for i = 0 to t.o_n - 1 do
      let _, _, oid = t.o_ids.(i) in
      if oid >= 0 && oid < n then blocked.(oid) <- true
    done;
    for i = 0 to t.s_n - 1 do
      let id = t.s_node.(i) in
      if id < n then blocked.(id) <- true
    done;
    let cand = Array.make n false in
    for id = 0 to n - 1 do
      if
        Intern.is_ctx_clone t.g_it id && direct_in.(id) = 1 && (not cast_in.(id)) && (not blocked.(id))
        && pred.(id) <> id
      then cand.(id) <- true
    done;
    (* Chase chains to their first non-substituted node; a defining
       cycle (pure copy loop with no outside edge) demotes the link
       where it closes, which the solver then treats normally. *)
    let sub = Array.init n Fun.id in
    let state = Array.make n 0 in
    let rec resolve i =
      if not cand.(i) then i
      else if state.(i) = 2 then sub.(i)
      else if state.(i) = 1 then begin
        cand.(i) <- false;
        i
      end
      else begin
        state.(i) <- 1;
        let r = resolve pred.(i) in
        state.(i) <- 2;
        if cand.(i) then begin
          sub.(i) <- r;
          r
        end
        else i
      end
    in
    for id = 0 to n - 1 do
      if cand.(id) then ignore (resolve id)
    done;
    let count = ref 0 in
    Array.iteri (fun i r -> if r <> i then incr count) sub;
    if !count = 0 then None else Some (sub, !count)
  end

(* The flow CSR over the interned ids, laid out from the edge log:
   entries are bucketed by source in log order, and each row keeps the
   first occurrence of every (kind, destination) — the adjacency an
   insertion-time dedup would have built. *)
let covered t = max (Intern.node_count t.g_it) t.e_cover

let build_frozen_flow ?(condense = build_condensed) t =
  let n = covered t in
  let row = Array.make (n + 1) 0 in
  iter_pieces t 0 t.e_n (fun g ->
      for e = g.g_lo to g.g_lo + g.g_len - 1 do
        let s = g.g_src.(e) in
        row.(s + 1) <- row.(s + 1) + 1
      done);
  for i = 0 to n - 1 do
    row.(i + 1) <- row.(i) + row.(i + 1)
  done;
  let raw = row.(n) in
  let edst = Array.make raw 0 and ekind = Array.make raw (-1) in
  let fill = Array.sub row 0 n in
  iter_pieces t 0 t.e_n (fun g ->
      for e = g.g_lo to g.g_lo + g.g_len - 1 do
        let s = g.g_src.(e) in
        let slot = fill.(s) in
        fill.(s) <- slot + 1;
        edst.(slot) <- g.g_dst.(e);
        ekind.(slot) <- g.g_kind.(e)
      done);
  (* compact each row in place: the write cursor never passes the read *)
  let d = dedup n in
  let w = ref 0 in
  for s = 0 to n - 1 do
    let lo = row.(s) and hi = row.(s + 1) in
    row.(s) <- !w;
    for e = lo to hi - 1 do
      let k = ekind.(e) and dst = edst.(e) in
      if fresh_in_row d s k dst then begin
        edst.(!w) <- dst;
        ekind.(!w) <- k;
        incr w
      end
    done
  done;
  row.(n) <- !w;
  let edst, ekind = if !w = raw then (edst, ekind) else (Array.sub edst 0 !w, Array.sub ekind 0 !w) in
  (* [row]/[edst]/[ekind] stay the true edges — the incremental shape
     diff and solved capture read them; substitution only rewrites the
     condensation input and patches the rep table. *)
  let rep, scc_count, largest, crow, cdst, ckind =
    match clone_subst t n row edst ekind with
    | None ->
        let rep, scc_count, largest = condense_direct n row edst ekind in
        let crow, cdst, ckind = condense n row edst ekind rep in
        (rep, scc_count, largest, crow, cdst, ckind)
    | Some (sub, subst_count) ->
        (* Rewritten edges: sources resolve through [sub]; edges into a
           substituted node (each one a chain's defining edge) and
           direct self-loops (no-op unions closed by the rewrite) are
           dropped. *)
        let row2 = Array.make (n + 1) 0 in
        for i = 0 to n - 1 do
          for e = row.(i) to row.(i + 1) - 1 do
            let d = edst.(e) in
            if sub.(d) = d && not (ekind.(e) < 0 && sub.(i) = d) then
              row2.(sub.(i) + 1) <- row2.(sub.(i) + 1) + 1
          done
        done;
        for i = 0 to n - 1 do
          row2.(i + 1) <- row2.(i) + row2.(i + 1)
        done;
        let edst2 = Array.make (max 1 row2.(n)) 0 in
        let ekind2 = Array.make (max 1 row2.(n)) (-1) in
        let cursor = Array.make n 0 in
        for i = 0 to n - 1 do
          for e = row.(i) to row.(i + 1) - 1 do
            let d = edst.(e) in
            if sub.(d) = d && not (ekind.(e) < 0 && sub.(i) = d) then begin
              let s = sub.(i) in
              let slot = row2.(s) + cursor.(s) in
              cursor.(s) <- cursor.(s) + 1;
              edst2.(slot) <- d;
              ekind2.(slot) <- ekind.(e)
            end
          done
        done;
        let rep, scc_count, largest = condense_direct n row2 edst2 ekind2 in
        let crow, cdst, ckind = condense n row2 edst2 ekind2 rep in
        (* Substituted nodes alias their root's component: reads, op
           scheduling and solution reads all go through [fc_rep], so
           the aliasing is invisible outside the solver core.  They are
           not real components — keep the count honest. *)
        Array.iteri (fun i r -> if r <> i then rep.(i) <- rep.(r)) sub;
        (rep, scc_count - subst_count, largest, crow, cdst, ckind)
  in
  {
    fc_nodes = n;
    fc_row = row;
    fc_edst = edst;
    fc_ekind = ekind;
    fc_cast_names = cast_names t;
    fc_rep = rep;
    fc_crow = crow;
    fc_cdst = cdst;
    fc_ckind = ckind;
    fc_scc_count = scc_count;
    fc_largest_scc = largest;
  }

(* Nodes minted after the snapshot (views discovered while solving)
   have no flow edges, so a memo built at the same edge count is still
   exact even though the interner has grown since.  The converse —
   serving a snapshot built over MORE nodes than the interner currently
   holds — can only happen if a future edge-removal/graph-reset API
   shrinks the pools without dropping the memo; the debug assert below
   turns that silent staleness into a crash at the memo hit. *)
let frozen_flow t =
  match t.frozen with
  | Some (at_edges, csr) when at_edges = t.e_n ->
      assert (covered t >= csr.fc_nodes);
      csr
  | _ ->
      let csr = build_frozen_flow t in
      t.frozen <- Some (t.e_n, csr);
      csr

let freeze_with ?condense t = build_frozen_flow ?condense t

(* ------------------------------------------------------------------ *)
(* Delta freeze: the frozen flow of an assembled graph, derived from
   the previous graph's.  Only the rows of sources the edited methods'
   old or new slices emit from can differ; the partition moves only
   where an added direct edge closes a cycle (found by a search over
   the previous condensation, after Pearce and Kelly) or a removed one
   was inside a component (re-condensed alone); condensed rows are
   rebuilt only for representatives with a changed member row. *)

type freeze_path = Delta_kept | Delta_merged | Delta_split | Full of string

type freeze_report = {
  fz_path : freeze_path;
  fz_rows : int;
  fz_changed : (int * (int * int) array * (int * int) array) list;
  fz_moved : int array;
}

exception Decline of string

let decline reason = raise (Decline reason)

(* Per-source rows in log order, first occurrence of each (kind,
   destination) kept: the sources marked in [mark], from one scan of
   [t]'s edge log. *)
let rows_of_log t mark sources =
  let acc = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace acc s []) sources;
  iter_pieces t 0 t.e_n (fun g ->
      for e = g.g_lo to g.g_lo + g.g_len - 1 do
        let s = g.g_src.(e) in
        if Bytes.unsafe_get mark s <> '\000' then
          Hashtbl.replace acc s ((g.g_kind.(e), g.g_dst.(e)) :: Hashtbl.find acc s)
      done);
  let rows = Hashtbl.create 16 in
  Hashtbl.iter
    (fun s rev ->
      let seen = Hashtbl.create 8 in
      let row = List.filter (fun ke -> (not (Hashtbl.mem seen ke)) && (Hashtbl.add seen ke (); true)) (List.rev rev) in
      Hashtbl.replace rows s (Array.of_list row))
    acc;
  rows

(* Lay out a CSR over [n] rows: the rows [fresh] lists (ascending
   sources) as given, every other row as the old CSR's (sources below
   [n_old], kinds mapped through [kind]) or empty.  Runs of old rows
   are blitted; with no fresh row and no kind to map, the old edge
   arrays are shared, and over the same ids the offsets too. *)
let splice_csr n ~n_old ~row ~dst ~knd ~kind ~identity fresh =
  if fresh = [] && identity && n = n_old then (row, dst, knd)
  else begin
    let row1 = Array.make (n + 1) 0 in
    let delta = ref 0 and pending = ref fresh in
    for s = 0 to n - 1 do
      let old_len = if s < n_old then row.(s + 1) - row.(s) else 0 in
      (match !pending with
      | (s', r) :: rest when s' = s ->
          delta := !delta + Array.length r - old_len;
          pending := rest
      | _ -> ());
      row1.(s + 1) <- (if s < n_old then row.(s + 1) else row.(n_old)) + !delta
    done;
    if fresh = [] && identity then (row1, dst, knd)
    else begin
      let dst1 = Array.make row1.(n) 0 and knd1 = Array.make row1.(n) (-1) in
      let copy a b =
        if a < b then begin
          let lo = row.(a) and len = row.(b) - row.(a) in
          blit_ints dst lo dst1 row1.(a) len;
          if identity then blit_ints knd lo knd1 row1.(a) len
          else
            for i = 0 to len - 1 do
              knd1.(row1.(a) + i) <- kind knd.(lo + i)
            done
        end
      in
      let run = ref 0 in
      List.iter
        (fun (s, r) ->
          copy !run (min s n_old);
          run := s + 1;
          Array.iteri
            (fun i (k, d) ->
              dst1.(row1.(s) + i) <- d;
              knd1.(row1.(s) + i) <- k)
            r)
        fresh;
      copy (min !run n_old) n_old;
      (row1, dst1, knd1)
    end
  end

(* Components merged by an added edge: the DFS runs over the current
   condensation — [prev]'s direct condensed edges plus the direct
   edges added so far, through the union-find of the merges so far —
   which stays acyclic, so a post-order pass finds every component on
   a path from the edge's destination back to its source. *)
type merges = {
  crow : int array;
  cdst : int array;
  ckind : int array;
  parent : (int, int) Hashtbl.t;  (** merged rep -> the group's rep *)
  groups : (int, int list) Hashtbl.t;  (** group rep -> its old reps (merged groups only) *)
  extra : (int, int) Hashtbl.t;  (** old rep -> destinations of added direct edges *)
}

let rec find m r = match Hashtbl.find_opt m.parent r with Some p -> find m p | None -> r

let group_members m r = Option.value (Hashtbl.find_opt m.groups r) ~default:[ r ]

(* The groups [r]'s members have a direct edge into, [r] left out: the
   condensed edges between members of a merged group lead back to it. *)
let group_succs m ~rep_of r =
  List.concat_map
    (fun o ->
      let own = ref [] in
      if o < Array.length m.crow - 1 then
        for e = m.crow.(o) to m.crow.(o + 1) - 1 do
          if m.ckind.(e) < 0 then own := find m m.cdst.(e) :: !own
        done;
      let added = List.map (fun d -> find m (rep_of d)) (Hashtbl.find_all m.extra o) in
      List.filter (( <> ) r) (List.rev_append !own added))
    (group_members m r)

(* The groups on a path from [rd] to [rs], [rs] included; [[]] when
   [rs] is unreachable. *)
let cycle_through m ~rep_of ~rs ~rd =
  let reach = Hashtbl.create 64 in
  Hashtbl.replace reach rs true;
  let frames = Stack.create () and on_path = Hashtbl.create 64 in
  let push r =
    Hashtbl.replace on_path r ();
    Stack.push (r, ref (group_succs m ~rep_of r), ref false) frames
  in
  push rd;
  while not (Stack.is_empty frames) do
    let r, rest, hit = Stack.top frames in
    match !rest with
    | c :: more -> (
        rest := more;
        match Hashtbl.find_opt reach c with
        | Some h -> if h then hit := true
        | None ->
            (* the condensation is acyclic, merged groups included *)
            assert (not (Hashtbl.mem on_path c));
            push c)
    | [] ->
        ignore (Stack.pop frames);
        Hashtbl.remove on_path r;
        Hashtbl.replace reach r !hit;
        if !hit && not (Stack.is_empty frames) then
          let _, _, up = Stack.top frames in
          up := true
  done;
  if Hashtbl.find reach rd then Hashtbl.fold (fun r h acc -> if h then r :: acc else acc) reach [] else []

let direct r = Array.fold_right (fun (k, d) acc -> if k < 0 then d :: acc else acc) r []

let freeze_delta t ~prev ~edited =
  try
    let fr0, fr1 =
      match (prev.fragments, t.fragments) with
      | Some fr0, Some fr1 -> (fr0, fr1)
      | _ -> decline "a graph recorded no fragments"
    in
    let fc0 =
      match prev.frozen with
      | Some (at, fc) when at = prev.e_n -> fc
      | _ -> decline "the previous graph's frozen flow is missing or stale"
    in
    (* Over a shared interner the node space only grows.  Fragments
       come from depth-0 extractions, which add no clone edges, so the
       full freeze would not substitute clone chains either. *)
    if not (t.g_it == prev.g_it) then decline "the graphs do not share an interner";
    let n0 = fc0.fc_nodes and n = covered t in
    (* the previous cast syms in [t]'s numbering; a class [t] no longer
       casts to gets [Diff.edit_script]'s sentinel, below [-1] *)
    let names = cast_names t in
    let tr =
      Array.mapi
        (fun k name ->
          let rec sym i = if i = Array.length names then -2 - k else if names.(i) = name then i else sym (i + 1) in
          sym 0)
        fc0.fc_cast_names
    in
    let identity = Array.for_all Fun.id (Array.mapi ( = ) tr) in
    let kind k = if k < 0 then k else tr.(k) in
    (* the sources the edited methods' old and new slices emit from *)
    let mark = Bytes.make n '\000' and sources = ref [] in
    let touch s =
      if Bytes.get mark s = '\000' then begin
        Bytes.set mark s '\001';
        sources := s :: !sources
      end
    in
    let touch_range graph (fr : fragments) k =
      iter_pieces graph fr.fr_starts.(k).c_edges fr.fr_starts.(k + 1).c_edges (fun g ->
          for e = g.g_lo to g.g_lo + g.g_len - 1 do
            touch g.g_src.(e)
          done)
    in
    Array.iteri
      (fun k e ->
        if e then begin
          touch_range prev fr0 k;
          touch_range t fr1 k
        end)
      edited;
    let rows = rows_of_log t mark !sources in
    let old_row s =
      if s >= n0 then [||]
      else
        Array.init (fc0.fc_row.(s + 1) - fc0.fc_row.(s)) (fun i ->
            let e = fc0.fc_row.(s) + i in
            (kind fc0.fc_ekind.(e), fc0.fc_edst.(e)))
    in
    let changed =
      List.sort compare
        (List.filter_map
           (fun s ->
             let o = old_row s and r = Hashtbl.find rows s in
             if o = r then None else Some (s, o, r))
           !sources)
    in
    let rep0 v = if v < n0 then fc0.fc_rep.(v) else v in
    (* A removed direct edge inside a component may split it; one across
       components leaves the previous condensation overstating the
       graph, so a cycle found in it may be stale. *)
    let splits = ref [] and stale = ref false in
    List.iter
      (fun (s, o, r) ->
        let now = direct r in
        List.iter
          (fun d ->
            if d <> s && not (List.mem d now) then
              if rep0 s <> rep0 d then stale := true
              else if not (List.mem (rep0 s) !splits) then splits := rep0 s :: !splits)
          (direct o))
      changed;
    if !splits <> [] then stale := true;
    let m =
      {
        crow = fc0.fc_crow;
        cdst = fc0.fc_cdst;
        ckind = fc0.fc_ckind;
        parent = Hashtbl.create 8;
        groups = Hashtbl.create 8;
        extra = Hashtbl.create 8;
      }
    in
    List.iter
      (fun (s, o, r) ->
        let before = direct o in
        List.iter
          (fun d ->
            if not (List.mem d before) then begin
              let rs = find m (rep0 s) and rd = find m (rep0 d) in
              (* an edge inside a group stays inside it *)
              if rs <> rd then begin
                (match cycle_through m ~rep_of:rep0 ~rs ~rd with
                | [] -> ()
                | _ when !stale -> decline "an added edge may close a cycle through a removed one"
                | cycle ->
                    let root = List.fold_left min max_int cycle in
                    let members = List.concat_map (group_members m) cycle in
                    List.iter
                      (fun g ->
                        Hashtbl.remove m.groups g;
                        if g <> root then Hashtbl.replace m.parent g root)
                      cycle;
                    Hashtbl.replace m.groups root members);
                Hashtbl.add m.extra (rep0 s) d
              end
            end)
          (direct r))
      changed;
    let fresh = List.map (fun (s, _, r) -> (s, r)) changed in
    let row, edst, ekind =
      splice_csr n ~n_old:n0 ~row:fc0.fc_row ~dst:fc0.fc_edst ~knd:fc0.fc_ekind ~kind ~identity fresh
    in
    let merged = Hashtbl.length m.parent > 0 in
    (* an unchanged partition over the same ids shares [prev]'s map,
       which no reader writes *)
    let rep =
      if n = n0 && (not merged) && !splits = [] then fc0.fc_rep
      else begin
        let rep = Array.make n 0 in
        blit_ints fc0.fc_rep 0 rep 0 n0;
        for v = n0 to n - 1 do
          rep.(v) <- v
        done;
        rep
      end
    in
    let moved = ref [] in
    if merged then
      for v = n - 1 downto 0 do
        if Hashtbl.mem m.parent rep.(v) then begin
          rep.(v) <- find m rep.(v);
          moved := v :: !moved
        end
      done;
    (* A component that lost an inner edge: Tarjan over its members'
       direct edges within it.  Members are listed ascending, so the
       smallest local index is the smallest member. *)
    List.iter
      (fun k ->
        let ms = ref [] in
        for v = n0 - 1 downto 0 do
          if fc0.fc_rep.(v) = k then ms := v :: !ms
        done;
        let ms = Array.of_list !ms in
        let local = Hashtbl.create (Array.length ms) in
        Array.iteri (fun i v -> Hashtbl.replace local v i) ms;
        let lrow = Array.make (Array.length ms + 1) 0 and ldst = ref [] in
        Array.iteri
          (fun i u ->
            lrow.(i + 1) <- lrow.(i);
            for e = row.(u) to row.(u + 1) - 1 do
              match Hashtbl.find_opt local edst.(e) with
              | Some j when ekind.(e) < 0 ->
                  ldst := j :: !ldst;
                  lrow.(i + 1) <- lrow.(i + 1) + 1
              | _ -> ()
            done)
          ms;
        let ldst = Array.of_list (List.rev !ldst) in
        let lrep, _, _ = condense_direct (Array.length ms) lrow ldst (Array.make (Array.length ldst) (-1)) in
        Array.iteri
          (fun i v ->
            rep.(v) <- ms.(lrep.(i));
            if rep.(v) <> k then moved := v :: !moved)
          ms)
      !splits;
    let moved = List.sort_uniq compare !moved in
    let scc_count, largest =
      if moved <> [] then begin
        let size = Array.make n 0 in
        Array.iter (fun r -> size.(r) <- size.(r) + 1) rep;
        Array.fold_left (fun (c, l) z -> if z > 0 then (c + 1, max l z) else (c, l)) (0, 0) size
      end
      else (fc0.fc_scc_count + n - n0, if n > n0 then max fc0.fc_largest_scc 1 else fc0.fc_largest_scc)
    in
    let (crow, cdst, ckind), rebuilt =
      if moved <> [] then (build_condensed n row edst ekind rep, scc_count)
      else begin
        (* the condensed rows of representatives with a changed member
           row, members ascending as [build_condensed] walks them *)
        let reps = List.sort_uniq compare (List.map (fun (s, _) -> rep.(s)) fresh) in
        let members = Hashtbl.create 8 in
        List.iter (fun r -> Hashtbl.replace members r [ r ]) reps;
        (* a member of a larger component has a direct edge into it *)
        let trivial r =
          let rec go e = e = row.(r + 1) || ((ekind.(e) >= 0 || edst.(e) = r || rep.(edst.(e)) <> r) && go (e + 1)) in
          go row.(r)
        in
        (match List.filter (fun r -> not (trivial r)) reps with
        | [] -> ()
        | big ->
            Bytes.fill mark 0 n '\000';
            List.iter
              (fun r ->
                Bytes.set mark r '\001';
                Hashtbl.replace members r [])
              big;
            for v = n - 1 downto 0 do
              if Bytes.get mark rep.(v) <> '\000' then
                Hashtbl.replace members rep.(v) (v :: Hashtbl.find members rep.(v))
            done);
        let crows =
          List.map
            (fun r ->
              let seen = Hashtbl.create 8 and acc = ref [] in
              List.iter
                (fun u ->
                  for e = row.(u) to row.(u + 1) - 1 do
                    let rv = rep.(edst.(e)) and k = ekind.(e) in
                    if rv <> r && not (Hashtbl.mem seen (k, rv)) then begin
                      Hashtbl.add seen (k, rv) ();
                      acc := (k, rv) :: !acc
                    end
                  done)
                (Hashtbl.find members r);
              (r, Array.of_list (List.rev !acc)))
            reps
        in
        ( splice_csr n ~n_old:n0 ~row:fc0.fc_crow ~dst:fc0.fc_cdst ~knd:fc0.fc_ckind ~kind ~identity crows,
          List.length reps )
      end
    in
    let csr =
      {
        fc_nodes = n;
        fc_row = row;
        fc_edst = edst;
        fc_ekind = ekind;
        fc_cast_names = names;
        fc_rep = rep;
        fc_crow = crow;
        fc_cdst = cdst;
        fc_ckind = ckind;
        fc_scc_count = scc_count;
        fc_largest_scc = largest;
      }
    in
    t.frozen <- Some (t.e_n, csr);
    let path = if merged then Delta_merged else if !splits <> [] then Delta_split else Delta_kept in
    { fz_path = path; fz_rows = rebuilt; fz_changed = changed; fz_moved = Array.of_list moved }
  with Decline reason -> { fz_path = Full reason; fz_rows = 0; fz_changed = []; fz_moved = [||] }

let pp_freeze_path ppf = function
  | Delta_kept -> Fmt.string ppf "delta freeze, partition kept"
  | Delta_merged -> Fmt.string ppf "delta freeze, components merged"
  | Delta_split -> Fmt.string ppf "delta freeze, component re-condensed"
  | Full reason -> Fmt.pf ppf "full freeze (%s)" reason

let op_table t =
  Array.init t.o_n (fun i ->
      let recv, args, out = t.o_ids.(i) in
      (t.o_log.(i).site, recv, args, out))

(* The solution store.  A points-to row lives on the node's component
   representative (ids past [sol_rep] are their own), every other row
   on its key's id.  A key the interner never saw has an empty row. *)
let row (rows : rows) i = if i >= 0 && i < Array.length rows then rows.(i) else None

let rep sol nid = if nid < Array.length sol.sol_rep then sol.sol_rep.(nid) else nid

let points_to_row sol nid = row sol.sol_sets (rep sol nid)

let non_empty = function Some b -> not (Util.Bitset.is_empty b) | None -> false

let solution t = t.sol

let set_solution t sol =
  t.sol <- sol;
  t.read_index <- None

let read_index t ~build =
  match t.read_index with
  | Some index -> index
  | None ->
      let index = build t in
      t.read_index <- Some index;
      index

let keys rows =
  let acc = ref [] in
  for i = Array.length rows - 1 downto 0 do
    if non_empty rows.(i) then acc := i :: !acc
  done;
  !acc

(* The structural view of the flow edges: the frozen rows, newest
   first, minus the edges that touch a context clone (none exist
   unless {!add_edge_ids} ran, so plain extractions skip the test). *)
let is_clone t id = t.has_clone_edges && Intern.is_ctx_clone t.g_it id

let succ_ids t id =
  let fc = frozen_flow t in
  let acc = ref [] in
  if id < fc.fc_nodes then
    for e = fc.fc_row.(id) to fc.fc_row.(id + 1) - 1 do
      if not (is_clone t fc.fc_edst.(e)) then acc := (fc.fc_ekind.(e), fc.fc_edst.(e)) :: !acc
    done;
  !acc

let succs t node =
  match Intern.find_node t.g_it node with
  | Some id when not (is_clone t id) ->
      List.map (fun (k, did) -> (kind_of_sym t k, Intern.node_of t.g_it did)) (succ_ids t id)
  | _ -> []

(* Structural edge sources in id order, each with its successor ids. *)
let iter_succ_ids t f =
  for id = 0 to (frozen_flow t).fc_nodes - 1 do
    if not (is_clone t id) then match succ_ids t id with [] -> () | succs -> f id succs
  done

(* The stated order over the log's positions: sort by node (then
   position), rank each node, sort by rank (then value).  One int array
   allocates less than grouping through a table. *)
let seeds t =
  let n = t.s_n and node = t.s_node in
  let pos = Array.init n Fun.id in
  Array.sort (fun i j -> match Int.compare node.(i) node.(j) with 0 -> Int.compare i j | c -> c) pos;
  let starts k = k = 0 || node.(pos.(k - 1)) <> node.(pos.(k)) in
  let nodes = ref 0 in
  Array.iteri (fun k _ -> if starts k then incr nodes) pos;
  let rec size b = if !nodes > 2 * b then size (2 * b) else b in
  let mask = size 128 - 1 and rank = Array.make n 0 in
  (* descending bucket, then the node's first position *)
  let first i = ((mask - (Hashtbl.hash (Intern.node_of t.g_it node.(i)) land mask)) * n) + i in
  Array.iteri (fun k i -> rank.(i) <- (if starts k then first i else rank.(pos.(k - 1)))) pos;
  Array.sort (fun i j -> match Int.compare rank.(i) rank.(j) with 0 -> Node.compare_value t.s_value.(i) t.s_value.(j) | c -> c) pos;
  Array.fold_right
    (fun i acc ->
      let v = t.s_value.(i) in
      match acc with
      | (m, (w :: _ as vs)) :: rest when m = node.(i) -> if Node.compare_value v w = 0 then acc else (m, v :: vs) :: rest
      | _ -> (node.(i), [ v ]) :: acc)
    pos []

let reset_sets t =
  set_solution t empty_solution;
  Hashtbl.reset t.inflations

(* Grow [views] in place by every view reachable from it over [rel]'s
   rows, by BFS: the one closure walk over the view relations. *)
let closure rel views =
  let queue = Queue.create () in
  Util.Bitset.iter (fun wid -> Queue.add wid queue) views;
  while not (Queue.is_empty queue) do
    match row rel (Queue.take queue) with
    | Some cs -> Util.Bitset.iter (fun c -> if Util.Bitset.add views c then Queue.add c queue) cs
    | None -> ()
  done;
  views

let holder_views sol hid =
  closure sol.sol_children (match row sol.sol_roots hid with Some b -> Util.Bitset.copy b | None -> Util.Bitset.create ())

let ancestors sol views = closure sol.sol_parents (Util.Bitset.copy views)

let holders t = List.map (Intern.holder_of t.g_it) (keys t.sol.sol_roots)

let views_with_listeners t = List.map (Intern.view_of t.g_it) (keys t.sol.sol_listeners)

let find_inflation t ~site ~layout = Hashtbl.find_opt t.inflations (site, layout)

let record_inflation t ~site ~layout views = Hashtbl.replace t.inflations (site, layout) views

let inflated_views t = Hashtbl.fold (fun _ views acc -> views @ acc) t.inflations []

(* The memo's entries (warm restore and the declarative passes), in
   the unseeded table's fold order. *)
let inflation_entries t =
  Hashtbl.fold (fun (site, layout) views acc -> (site, layout, views) :: acc) t.inflations []

let ops t = Array.to_list (Array.sub t.o_log 0 t.o_n)

let allocs t = Array.to_list (Array.sub t.a_log 0 t.a_n)

(* The structural part (edge endpoints, seeds and op nodes, all
   interned at construction) is gathered newest first, then the
   locations only the solve reached follow by ascending id.
   Deduplication runs on ids: the interner maps equal nodes to one
   id. *)
let locations t =
  let it = t.g_it in
  let seen = Util.Bitset.create () in
  let structural = ref [] in
  let add_id nid = if Util.Bitset.add seen nid then structural := Intern.node_of it nid :: !structural in
  iter_succ_ids t (fun src targets ->
      add_id src;
      List.iter (fun (_, dst) -> add_id dst) targets);
  List.iter (fun (nid, _) -> add_id nid) (List.rev (seeds t));
  for i = t.o_n - 1 downto 0 do
    let rid, aids, oid = t.o_ids.(i) in
    add_id rid;
    Array.iter add_id aids;
    if oid >= 0 then add_id oid
  done;
  let solved = ref [] in
  for nid = Intern.node_count it - 1 downto 0 do
    if non_empty (points_to_row t.sol nid) && not (Util.Bitset.mem seen nid) then
      solved := Intern.node_of it nid :: !solved
  done;
  !structural @ !solved

let edge_count t =
  let fc = frozen_flow t in
  fc.fc_row.(fc.fc_nodes)
