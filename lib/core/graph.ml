module VS = Set.Make (struct
  type t = Node.value

  let compare = Node.compare_value
end)

module View_set = Set.Make (struct
  type t = Node.view_abs

  let compare = Node.compare_view
end)

module Listener_set = Set.Make (struct
  type t = Node.listener_abs * string

  let compare (l1, i1) (l2, i2) =
    let c = Node.compare_listener l1 l2 in
    if c <> 0 then c else String.compare i1 i2
end)

module Int_set = Set.Make (Int)

type edge_kind = E_direct | E_cast of string

(* Hashed-key tables with explicit equal/hash (the polymorphic hash
   walks whole nested records and caps its traversal; these reuse the
   explicit [Node] hashes).  Edge dedup runs over interned ids: the key
   is the ⟨src, dst⟩ pair packed into one int ({!Intern.pack}), and the
   value lists the edge kinds already present between the two — cast
   syms, or [-1] for a direct edge.  A direct-only pair, by far the
   common case, shares one constant list, so a fresh edge allocates
   only its table bucket. *)
module Edge_seen = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash key = Node.mix (key lsr Intern.pack_bits) (key land ((1 lsl Intern.pack_bits) - 1))
end)

let direct_only = [ -1 ]

let rec mem_sym (k : int) = function [] -> false | k' :: rest -> k = k' || mem_sym k rest

(* Record edge [src -k-> dst]; [false] when it was already there. *)
let edge_fresh seen src k dst =
  let key = Intern.pack src dst in
  match Edge_seen.find_opt seen key with
  | None ->
      Edge_seen.add seen key (if k < 0 then direct_only else [ k ]);
      true
  | Some syms ->
      if mem_sym k syms then false
      else begin
        Edge_seen.replace seen key (k :: syms);
        true
      end

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

type t = {
  g_it : Intern.t;
      (** hash-consing interner: every node touched by an edge, seed,
          or op gets a dense id at construction time, so the interned
          solver's freeze step is pure integer work *)
  mutable isuccs : (int * int) list array;
      (** every flow edge, structural and clone edges alike: src id ->
          (cast sym or [-1], dst id), newest first *)
  mutable has_clone_edges : bool;
      (** {!add_edge_ids} ran: some edge may touch a context clone *)
  icast_tbl : (string, int) Hashtbl.t;  (** cast class -> dense sym *)
  mutable icast_names : string array;  (** cast sym -> class; grown by doubling *)
  mutable frozen : (int * flow_csr) option;
      (** CSR snapshot memo, keyed by the edge count it was built at;
          flow edges only grow during extraction, so re-solving reuses
          the frozen arrays *)
  mutable iop_ids : (int * int array * int) list;
      (** per op, newest first: (recv id, arg ids, out id or -1) *)
  edge_seen : int list Edge_seen.t;
  mutable edge_total : int;
  seed_tbl : (Node.t, VS.t) Hashtbl.t;
  mutable op_list : op list;  (** reversed creation order *)
  mutable alloc_list : Node.alloc_site list;  (** reversed creation order *)
  alloc_seen : unit Alloc_seen.t;
  mutable sol : solution;  (** the last solve's id-level solution *)
  mutable points_to : (Node.t, VS.t) Hashtbl.t option;
      (** read index over [sol]'s points-to rows, decoded in one pass on
          the first points-to read and dropped with the solution *)
  inflations : (Node.site * string, Node.view_abs list) Hashtbl.t;
      (** the inflation memo: (site, layout) -> minted views, in the
          layout's preorder *)
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
    isuccs = [||];
    has_clone_edges = false;
    icast_tbl = Hashtbl.create 8;
    icast_names = [||];
    frozen = None;
    iop_ids = [];
    edge_seen = Edge_seen.create 256;
    edge_total = 0;
    seed_tbl = Hashtbl.create 128;
    op_list = [];
    alloc_list = [];
    alloc_seen = Alloc_seen.create 64;
    sol = empty_solution;
    points_to = None;
    inflations = Hashtbl.create 16;
    g_has_top = false;
  }

(* Idempotent per site: inlined clones of a statement denote the same
   allocation abstraction.  The dedup table ([alloc_seen]) is part of
   the graph, so concurrent extractions on separate domains — each
   owning its own graph — cannot interleave allocation lists. *)
let fresh_alloc t ~cls ~site =
  let alloc = { Node.a_site = site; a_cls = cls } in
  if not (Alloc_seen.mem t.alloc_seen alloc) then begin
    Alloc_seen.add t.alloc_seen alloc ();
    t.alloc_list <- alloc :: t.alloc_list
  end;
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

(* Grow an id-indexed adjacency array to cover index [i]. *)
let ensure_slot arr i =
  let n = Array.length arr in
  if i < n then arr
  else begin
    let grown = Array.make (max 256 (max (i + 1) (2 * n))) [] in
    Array.blit arr 0 grown 0 n;
    grown
  end

let fresh_op t ~kind ~site ~recv ~args ~out =
  let op = { site = { Node.o_site = site; o_kind = kind }; op_recv = recv; op_args = args; op_out = out } in
  let rid = node_id t recv in
  let aids = Array.of_list (List.map (node_id t) args) in
  let oid = match out with Some n -> node_id t n | None -> -1 in
  t.iop_ids <- (rid, aids, oid) :: t.iop_ids;
  t.op_list <- op :: t.op_list;
  op

let push_edge t sid ksym did =
  if edge_fresh t.edge_seen sid ksym did then begin
    t.edge_total <- t.edge_total + 1;
    t.isuccs <- ensure_slot t.isuccs sid;
    t.isuccs.(sid) <- (ksym, did) :: t.isuccs.(sid)
  end

let add_edge t ?(kind = E_direct) src dst =
  let sid = node_id t src and did = node_id t dst in
  let ksym = match kind with E_direct -> -1 | E_cast cls -> cast_sym t cls in
  push_edge t sid ksym did

let seed t node value =
  ignore (node_id t node);
  (match value with
  | Node.V_layout_top | Node.V_view_id_top -> t.g_has_top <- true
  | _ -> ());
  let existing = Option.value (Hashtbl.find_opt t.seed_tbl node) ~default:VS.empty in
  Hashtbl.replace t.seed_tbl node (VS.add value existing)

let has_top t = t.g_has_top

(* Id-level emission (context-keyed extraction).  Every clone-body
   edge touches a context clone ({!Intern.ctx_node} marks them), and no
   structural edge of the same extraction does: the structural walk
   never renames.  The frozen CSR is laid out from [isuccs], so the
   interned solver sees the context-expanded flow graph, while the
   structural views ([succs], [locations], [pp_dot]) hide the edges
   that touch a clone and stay context-insensitive; the clone rows are
   read from the solution store like any other node's. *)
let add_edge_ids t ?(kind = E_direct) sid did =
  let ksym = match kind with E_direct -> -1 | E_cast cls -> cast_sym t cls in
  push_edge t sid ksym did;
  t.has_clone_edges <- true

(* Seed statements are rare (allocations, id constants); decoding the
   id back keeps the seed table structural and identical between the
   keyed and inlining paths. *)
let seed_id t nid value = seed t (Intern.node_of t.g_it nid) value

(* The op record still carries structural nodes (decoded from the ids,
   so clone receivers surface with their [$n]-suffixed names exactly as
   the inlining path records them); the id triple goes straight onto
   [iop_ids] without re-interning. *)
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
  t.iop_ids <- (recv, Array.of_list args, Option.value out ~default:(-1)) :: t.iop_ids;
  t.op_list <- op :: t.op_list;
  op

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

(* Condensed CSR: every edge mapped through [rep], intra-component
   edges dropped (direct ones are subsumed by the shared component set;
   a cast edge inside a direct cycle only re-adds a subset of what the
   direct path already carries), duplicates merged. *)
let build_condensed n row edst ekind rep =
  let seen = Edge_seen.create 256 in
  let lists = Array.make n [] in
  (* (kind, rep dst), newest first per rep *)
  let total = ref 0 in
  for u = 0 to n - 1 do
    let ru = rep.(u) in
    for e = row.(u) to row.(u + 1) - 1 do
      let rv = rep.(edst.(e)) in
      if ru <> rv then begin
        let k = ekind.(e) in
        if edge_fresh seen ru k rv then begin
          lists.(ru) <- (k, rv) :: lists.(ru);
          incr total
        end
      end
    done
  done;
  let crow = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    crow.(i + 1) <- crow.(i) + List.length lists.(i)
  done;
  let cdst = Array.make !total 0 in
  let ckind = Array.make !total (-1) in
  for i = 0 to n - 1 do
    let e = ref crow.(i + 1) in
    List.iter
      (fun (k, rv) ->
        decr e;
        cdst.(!e) <- rv;
        ckind.(!e) <- k)
      lists.(i)
  done;
  (crow, cdst, ckind)

(* CSR snapshot of the flow edges over the interned ids: [isuccs] keeps
   each adjacency newest-first, so laying entries out backward from the
   row boundary restores insertion order. *)
(* Copy-chain substitution over context clones (offline variable
   substitution, restricted to ids {!Intern.ctx_clone_ids} certifies
   as flow-only).  A clone variable with exactly one incoming direct
   edge, no incoming cast edge, no seed and no op writing it provably
   saturates to its predecessor's set, so it needs no bitset of its
   own: its rep is patched to the chain root's and the defining edge
   disappears from the condensed CSR.  Context expansion mass-produces
   exactly this shape (recv → this$n, arg → param$n, ret$n → out), so
   the solve over the expanded graph collapses back towards the
   context-insensitive size.  Every clone node still reads a solution
   (its root's row, through [fc_rep]), keeping the result bit-identical
   to the inlining path; non-keyed graphs have no clone ids and skip
   this entirely. *)
let clone_subst t n row edst ekind =
  match Intern.ctx_clone_ids t.g_it with
  | [] -> None
  | clone_ids ->
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
      List.iter (fun (_, _, oid) -> if oid >= 0 && oid < n then blocked.(oid) <- true) t.iop_ids;
      Hashtbl.iter
        (fun node _ ->
          match Intern.find_node t.g_it node with
          | Some id when id < n -> blocked.(id) <- true
          | _ -> ())
        t.seed_tbl;
      let cand = Array.make n false in
      List.iter
        (fun id ->
          if
            id < n && direct_in.(id) = 1 && (not cast_in.(id)) && (not blocked.(id))
            && pred.(id) <> id
          then cand.(id) <- true)
        clone_ids;
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
      List.iter (fun id -> if id < n then ignore (resolve id)) clone_ids;
      let count = ref 0 in
      Array.iteri (fun i r -> if r <> i then incr count) sub;
      if !count = 0 then None else Some (sub, !count)

let build_frozen_flow t =
  let n = Intern.node_count t.g_it in
  let m = Array.length t.isuccs in
  let row = Array.make (n + 1) 0 in
  for i = 0 to min m n - 1 do
    row.(i + 1) <- List.length t.isuccs.(i)
  done;
  for i = 0 to n - 1 do
    row.(i + 1) <- row.(i) + row.(i + 1)
  done;
  let edst = Array.make row.(n) 0 in
  let ekind = Array.make row.(n) (-1) in
  for i = 0 to min m n - 1 do
    let e = ref row.(i + 1) in
    List.iter
      (fun (ksym, did) ->
        decr e;
        edst.(!e) <- did;
        ekind.(!e) <- ksym)
      t.isuccs.(i)
  done;
  (* [row]/[edst]/[ekind] stay the true edges — the incremental shape
     diff and solved capture read them; substitution only rewrites the
     condensation input and patches the rep table. *)
  let rep, scc_count, largest, crow, cdst, ckind =
    match clone_subst t n row edst ekind with
    | None ->
        let rep, scc_count, largest = condense_direct n row edst ekind in
        let crow, cdst, ckind = build_condensed n row edst ekind rep in
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
        let crow, cdst, ckind = build_condensed n row2 edst2 ekind2 rep in
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
    fc_cast_names = Array.sub t.icast_names 0 (Hashtbl.length t.icast_tbl);
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
  | Some (at_edges, csr) when at_edges = t.edge_total ->
      assert (Intern.node_count t.g_it >= csr.fc_nodes);
      csr
  | _ ->
      let csr = build_frozen_flow t in
      t.frozen <- Some (t.edge_total, csr);
      csr

let ops_node_ids t = Array.of_list (List.rev t.iop_ids)

(* Decode-on-read.  Solution reads go to the store (points-to reads
   through the index below): a points-to row lives on the node's
   component representative (ids past [sol_rep] are their own), every
   other row on its key's id.  A key the interner never saw has an
   empty row. *)
let row (rows : rows) i = if i >= 0 && i < Array.length rows then rows.(i) else None

let rep_of sol nid = if nid < Array.length sol.sol_rep then sol.sol_rep.(nid) else nid

let points_to_row sol nid = row sol.sol_sets (rep_of sol nid)

let non_empty = function Some b -> not (Util.Bitset.is_empty b) | None -> false

let solution t = t.sol

let set_solution t sol =
  t.sol <- sol;
  t.points_to <- None

let decode_values t = function
  | None -> VS.empty
  | Some b -> Util.Bitset.fold (fun vid acc -> VS.add (Intern.value_of t.g_it vid) acc) b VS.empty

let decode_views t = function
  | None -> View_set.empty
  | Some b ->
      Util.Bitset.fold (fun wid acc -> View_set.add (Intern.view_of t.g_it wid) acc) b View_set.empty

(* Points-to reads come in bulk right after a solve (metrics, then
   per-location queries).  Decoding a row per read costs several cold
   memory hops plus a sort: against a table decoded moments before,
   the benchmark's per-read latency measured 1.5x at the median and
   2.5x at the 99th percentile (perfbench paper and modes, 2-core
   host).  So the first read decodes every row once, each component's
   set shared by its members. *)
let points_to t =
  match t.points_to with
  | Some tbl -> tbl
  | None ->
      let it = t.g_it in
      let tbl = Hashtbl.create 256 in
      let decoded = Array.make (Array.length t.sol.sol_sets) None in
      for nid = 0 to Intern.node_count it - 1 do
        let r = rep_of t.sol nid in
        match row t.sol.sol_sets r with
        | Some b when not (Util.Bitset.is_empty b) ->
            let vs =
              match decoded.(r) with
              | Some vs -> vs
              | None ->
                  let vs = decode_values t (Some b) in
                  decoded.(r) <- Some vs;
                  vs
            in
            Hashtbl.replace tbl (Intern.node_of it nid) vs
        | _ -> ()
      done;
      t.points_to <- Some tbl;
      tbl

let set_of t node = Option.value (Hashtbl.find_opt (points_to t) node) ~default:VS.empty

let taints_of t node =
  match Intern.find_node t.g_it node with
  | Some nid -> decode_values t (row t.sol.sol_taints nid)
  | None -> VS.empty

(* Ids [0, n) of [rows] holding a non-empty row, ascending. *)
let keys_of rows =
  let acc = ref [] in
  for i = Array.length rows - 1 downto 0 do
    if non_empty rows.(i) then acc := i :: !acc
  done;
  !acc

let tainted_nodes t =
  List.map
    (fun nid -> (Intern.node_of t.g_it nid, decode_values t t.sol.sol_taints.(nid)))
    (keys_of t.sol.sol_taints)

let views_of t node =
  VS.fold
    (fun v acc -> match Node.view_of_value v with Some view -> view :: acc | None -> acc)
    (set_of t node) []

(* The structural view of the flow edges: [isuccs] decoded, minus the
   edges that touch a context clone (none exist unless {!add_edge_ids}
   ran, so plain extractions skip the test). *)
let is_clone t id = t.has_clone_edges && Intern.is_ctx_clone t.g_it id

let rec decode_succs t = function
  | [] -> []
  | (k, did) :: rest ->
      if is_clone t did then decode_succs t rest
      else (kind_of_sym t k, Intern.node_of t.g_it did) :: decode_succs t rest

let succs t node =
  match Intern.find_node t.g_it node with
  | Some id when id < Array.length t.isuccs && not (is_clone t id) -> decode_succs t t.isuccs.(id)
  | _ -> []

(* Structural edge sources in id order, each with its successor ids. *)
let iter_succ_ids t f =
  Array.iteri
    (fun id targets ->
      if targets <> [] && not (is_clone t id) then
        match List.filter (fun (_, did) -> not (is_clone t did)) targets with
        | [] -> ()
        | succs -> f id succs)
    t.isuccs

let seeds t = Hashtbl.fold (fun node vs acc -> (node, vs) :: acc) t.seed_tbl []

let reset_sets t =
  set_solution t empty_solution;
  Hashtbl.reset t.inflations

let view_row t rows view =
  match Intern.find_view t.g_it view with Some wid -> row rows wid | None -> None

let children_of t view = decode_views t (view_row t t.sol.sol_children view)

let parents_of t view = decode_views t (view_row t t.sol.sol_parents view)

(* Grow [views] in place by every view reachable from it over the
   child rows, by BFS: the one closure walk over [sol_children]. *)
let closure sol views =
  let queue = Queue.create () in
  Util.Bitset.iter (fun wid -> Queue.add wid queue) views;
  while not (Queue.is_empty queue) do
    match row sol.sol_children (Queue.take queue) with
    | Some cs -> Util.Bitset.iter (fun c -> if Util.Bitset.add views c then Queue.add c queue) cs
    | None -> ()
  done;
  views

let copy_row rows i =
  match row rows i with Some b -> Util.Bitset.copy b | None -> Util.Bitset.create ()

let holder_views sol hid = closure sol (copy_row sol.sol_roots hid)

let descendants t ~include_self view =
  match Intern.find_view t.g_it view with
  | None -> if include_self then View_set.singleton view else View_set.empty
  | Some wid ->
      let start = copy_row t.sol.sol_children wid in
      if include_self then ignore (Util.Bitset.add start wid);
      decode_views t (Some (closure t.sol start))

let ids_of_view t view =
  match view_row t t.sol.sol_ids view with
  | Some b -> Util.Bitset.fold (fun sym acc -> Int_set.add (Intern.rid_of t.g_it sym) acc) b Int_set.empty
  | None -> Int_set.empty

let roots_of_holder t holder =
  match Intern.find_holder t.g_it holder with
  | Some hid -> decode_views t (row t.sol.sol_roots hid)
  | None -> View_set.empty

let holders t = List.map (Intern.holder_of t.g_it) (keys_of t.sol.sol_roots)

let listeners_of_view t view =
  match view_row t t.sol.sol_listeners view with
  | Some b ->
      Util.Bitset.fold
        (fun eid acc -> Listener_set.add (Intern.listener_of t.g_it eid) acc)
        b Listener_set.empty
  | None -> Listener_set.empty

let views_with_listeners t = List.map (Intern.view_of t.g_it) (keys_of t.sol.sol_listeners)

let find_inflation t ~site ~layout = Hashtbl.find_opt t.inflations (site, layout)

let record_inflation t ~site ~layout views = Hashtbl.replace t.inflations (site, layout) views

let inflated_views t = Hashtbl.fold (fun _ views acc -> views @ acc) t.inflations []

(* The memo's entries (snapshot encoding, warm restore and the
   declarative passes), in Hashtbl order: callers must not depend on
   it. *)
let inflation_entries t =
  Hashtbl.fold (fun (site, layout) views acc -> (site, layout, views) :: acc) t.inflations []

let ops t = List.rev t.op_list

let allocs t = List.rev t.alloc_list

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
  let add node = add_id (Intern.node it node) in
  iter_succ_ids t (fun src targets ->
      add_id src;
      List.iter (fun (_, dst) -> add_id dst) targets);
  Hashtbl.iter (fun node _ -> add node) t.seed_tbl;
  List.iter
    (fun op ->
      add op.op_recv;
      List.iter add op.op_args;
      Option.iter add op.op_out)
    t.op_list;
  let solved = ref [] in
  for nid = Intern.node_count it - 1 downto 0 do
    if non_empty (points_to_row t.sol nid) && not (Util.Bitset.mem seen nid) then
      solved := Intern.node_of it nid :: !solved
  done;
  !structural @ !solved

let edge_count t = t.edge_total

(* Graphviz output: locations as ellipses, ops as boxes, views as gray
   boxes (Figure 3/4 style). *)
let pp_dot ppf t =
  let location_id node = Fmt.str "%S" (Fmt.str "%a" Node.pp node) in
  let view_id view = Fmt.str "%S" (Fmt.str "%a" Node.pp_view view) in
  Fmt.pf ppf "digraph constraint_graph {@\n  rankdir=LR;@\n";
  List.iter
    (fun node -> Fmt.pf ppf "  %s [shape=ellipse];@\n" (location_id node))
    (locations t);
  List.iter
    (fun op ->
      let op_node = Fmt.str "%S" (Fmt.str "%a" Node.pp_op_site op.site) in
      Fmt.pf ppf "  %s [shape=box,style=bold];@\n" op_node;
      Fmt.pf ppf "  %s -> %s [label=recv];@\n" (location_id op.op_recv) op_node;
      List.iteri
        (fun i arg -> Fmt.pf ppf "  %s -> %s [label=\"arg%d\"];@\n" (location_id arg) op_node i)
        op.op_args;
      Option.iter (fun out -> Fmt.pf ppf "  %s -> %s;@\n" op_node (location_id out)) op.op_out)
    (ops t);
  iter_succ_ids t (fun src targets ->
      let src = location_id (Intern.node_of t.g_it src) in
      List.iter
        (fun (k, dst) ->
          let dst = location_id (Intern.node_of t.g_it dst) in
          match kind_of_sym t k with
          | E_direct -> Fmt.pf ppf "  %s -> %s;@\n" src dst
          | E_cast c -> Fmt.pf ppf "  %s -> %s [label=\"(%s)\"];@\n" src dst c)
        targets);
  (* relation rows by ascending key id *)
  let views rows = List.map (Intern.view_of t.g_it) (keys_of rows) in
  List.iter
    (fun view ->
      View_set.iter
        (fun child -> Fmt.pf ppf "  %s -> %s [style=dashed,label=child];@\n" (view_id view) (view_id child))
        (children_of t view))
    (views t.sol.sol_children);
  List.iter
    (fun view ->
      Int_set.iter
        (fun id -> Fmt.pf ppf "  %s -> \"id:0x%x\" [style=dashed];@\n" (view_id view) id)
        (ids_of_view t view))
    (views t.sol.sol_ids);
  List.iter
    (fun holder ->
      View_set.iter
        (fun root ->
          Fmt.pf ppf "  \"%a\" -> %s [style=dashed,label=root];@\n" Node.pp_holder holder (view_id root))
        (roots_of_holder t holder))
    (holders t);
  List.iter
    (fun view ->
      Listener_set.iter
        (fun (l, iface) ->
          Fmt.pf ppf "  %s -> \"%a\" [style=dashed,label=\"listener:%s\"];@\n" (view_id view)
            Node.pp_listener l iface)
        (listeners_of_view t view))
    (views_with_listeners t);
  Fmt.pf ppf "}@\n"
