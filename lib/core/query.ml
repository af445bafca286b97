(* Demand-driven queries over a captured solution (ROADMAP
   "analysis-as-a-service"; RECON-style backward constraint
   evaluation).

   A [Query.t] is a read-only view of a [Solve.solved]: it decodes
   interner ids, reads the per-representative solution bitsets, and —
   for points-to queries — re-derives a representative's solution by
   running the flow rules *backward* from the query node over a
   reverse index of the frozen CSR, instead of reading the saturated
   forward answer.

   Exactness argument.  In the condensed flow graph the forward
   fixpoint satisfies, for every representative [r]:

     sols(r) = seeds(r) ∪ op_pushes(r)
               ∪ ⋃ over condensed in-edges (s, k): filter_k(sols(s))

   The solver records every representative an operation rule (or the
   declarative / declared-fragment pass) ever pushed into in
   [sd_targets] — unconditionally, before the growth check — while
   seeds and plain propagation are never recorded.  So for any
   representative NOT in that generator set, [op_pushes(r)] is empty
   and the equation closes over seeds and in-edges alone; the backward
   walk evaluates exactly that equation, reading the cached forward
   solution when it reaches a generator.  Every fallback (generator
   hit, condensed-graph cycle through cast edges, exhausted budget)
   substitutes the captured points-to row, which IS the fixpoint — so substitution
   preserves equality and the backward answer is bit-identical to the
   forward projection by construction.  The differential battery in
   [test/test_query.ml] checks this across the corpus, random, cyclic
   and incrementally patched apps at every budget. *)

type stats = {
  mutable q_queries : int;  (** point queries answered *)
  mutable q_memo_hits : int;  (** representatives answered from the per-query-engine memo *)
  mutable q_expanded : int;  (** representatives expanded by the backward walk *)
  mutable q_edges : int;  (** reverse condensed edges traversed *)
  mutable q_generator_hits : int;
      (** op-written representatives answered from the cached forward
          fixpoint (the backward walk's base case) *)
  mutable q_cycle_fallbacks : int;  (** cast-edge cycles in the condensed graph *)
  mutable q_budget_fallbacks : int;  (** walks truncated by the fuel budget *)
}

let fresh_stats () =
  {
    q_queries = 0;
    q_memo_hits = 0;
    q_expanded = 0;
    q_edges = 0;
    q_generator_hits = 0;
    q_cycle_fallbacks = 0;
    q_budget_fallbacks = 0;
  }

type t = {
  sd : Solve.solved;
  hierarchy : Jir.Hierarchy.t;  (** for cast filtering; must match [sd_class_fp] *)
  rev_row : int array;  (** representative -> span in [rev_src]/[rev_kind], sized csr_n+1 *)
  rev_src : int array;  (** source representative of each reverse edge *)
  rev_kind : int array;  (** [-1] direct, else index into [sd_cast_names] *)
  seeds : (int, Util.Bitset.t) Hashtbl.t;  (** representative -> seeded value ids *)
  generators : Util.Bitset.t;  (** representatives some op/declarative/fragment writer pushed into *)
  memo : (int, Util.Bitset.t) Hashtbl.t;  (** representative -> backward-derived solution *)
  in_progress : Util.Bitset.t;  (** cycle guard for the backward recursion *)
  stats : stats;
  empty : Util.Bitset.t;  (** shared read-only empty set *)
}

let default_budget = 65536

(* The reverse condensed-edge index, built once at [create]: walk the
   full frozen CSR, map endpoints through the representative table,
   drop intra-component edges (the forward condensation drops them for
   both kinds — inside a component direct flow is identity and the
   solver never created intra-component cast edges it kept), and dedup
   (dst-rep, src-rep, kind) exactly as the forward build dedups
   (src-rep, dst-rep, kind). *)
let build_reverse (sd : Solve.solved) =
  let n = sd.Solve.sd_csr_n in
  let row = sd.Solve.sd_row and edst = sd.Solve.sd_edst and ekind = sd.Solve.sd_ekind in
  let nrep = sd.Solve.sd_solution.Graph.sol_rep in
  let seen = Hashtbl.create 1024 in
  let edges = ref [] in
  let count = Array.make (n + 1) 0 in
  let nedges = ref 0 in
  for s = 0 to n - 1 do
    let rs = nrep.(s) in
    for e = row.(s) to row.(s + 1) - 1 do
      let rd = nrep.(edst.(e)) in
      if rs <> rd then begin
        let k = ekind.(e) in
        let key = (rd, rs, k) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          edges := key :: !edges;
          count.(rd) <- count.(rd) + 1;
          incr nedges
        end
      end
    done
  done;
  let rev_row = Array.make (n + 1) 0 in
  for r = 0 to n - 1 do
    rev_row.(r + 1) <- rev_row.(r) + count.(r)
  done;
  let fill = Array.copy rev_row in
  let rev_src = Array.make !nedges 0 and rev_kind = Array.make !nedges (-1) in
  List.iter
    (fun (rd, rs, k) ->
      let slot = fill.(rd) in
      fill.(rd) <- slot + 1;
      rev_src.(slot) <- rs;
      rev_kind.(slot) <- k)
    !edges;
  (rev_row, rev_src, rev_kind)

let create ~hierarchy sd =
  let rev_row, rev_src, rev_kind = build_reverse sd in
  let seeds = Hashtbl.create 256 in
  Array.iter
    (fun (nid, vid) ->
      let r = Solve.solved_rep sd nid in
      let b =
        match Hashtbl.find_opt seeds r with
        | Some b -> b
        | None ->
            let b = Util.Bitset.create () in
            Hashtbl.add seeds r b;
            b
      in
      ignore (Util.Bitset.add b vid))
    sd.Solve.sd_seeds;
  let generators = Util.Bitset.create () in
  Array.iter
    (fun targets -> Util.Bitset.union_delta ~into:generators targets ~on_new:(fun _ -> ()))
    sd.Solve.sd_targets;
  {
    sd;
    hierarchy;
    rev_row;
    rev_src;
    rev_kind;
    seeds;
    generators;
    memo = Hashtbl.create 256;
    in_progress = Util.Bitset.create ();
    stats = fresh_stats ();
    empty = Util.Bitset.create ();
  }

let stats t = t.stats

let solved t = t.sd

let interner t = t.sd.Solve.sd_it

(* The cached forward solution of a representative — the fallback and
   generator base case.  Treat as read-only (aliased). *)
let cached t r =
  match Graph.row t.sd.Solve.sd_solution.Graph.sol_sets r with Some b -> b | None -> t.empty

let rec backsolve t fuel r =
  match Hashtbl.find_opt t.memo r with
  | Some b ->
      t.stats.q_memo_hits <- t.stats.q_memo_hits + 1;
      b
  | None ->
      if Util.Bitset.mem t.generators r then begin
        t.stats.q_generator_hits <- t.stats.q_generator_hits + 1;
        let b = cached t r in
        Hashtbl.replace t.memo r b;
        b
      end
      else if Util.Bitset.mem t.in_progress r then begin
        (* a condensed-graph cycle (cast edges may close one); the
           cached answer is the fixpoint, so substituting it is exact *)
        t.stats.q_cycle_fallbacks <- t.stats.q_cycle_fallbacks + 1;
        cached t r
      end
      else if !fuel <= 0 then begin
        t.stats.q_budget_fallbacks <- t.stats.q_budget_fallbacks + 1;
        let b = cached t r in
        Hashtbl.replace t.memo r b;
        b
      end
      else begin
        decr fuel;
        t.stats.q_expanded <- t.stats.q_expanded + 1;
        ignore (Util.Bitset.add t.in_progress r);
        let acc = Util.Bitset.create () in
        (match Hashtbl.find_opt t.seeds r with
        | Some s -> Util.Bitset.union_delta ~into:acc s ~on_new:(fun _ -> ())
        | None -> ());
        if r < t.sd.Solve.sd_csr_n then
          for e = t.rev_row.(r) to t.rev_row.(r + 1) - 1 do
            t.stats.q_edges <- t.stats.q_edges + 1;
            let sub = backsolve t fuel t.rev_src.(e) in
            match t.rev_kind.(e) with
            | -1 -> Util.Bitset.union_delta ~into:acc sub ~on_new:(fun _ -> ())
            | k ->
                let cls = t.sd.Solve.sd_cast_names.(k) in
                Util.Bitset.iter
                  (fun vid ->
                    if
                      Solve.passes_cast t.hierarchy cls (Intern.value_of t.sd.Solve.sd_it vid)
                    then ignore (Util.Bitset.add acc vid))
                  sub
          done;
        Util.Bitset.remove t.in_progress r;
        Hashtbl.replace t.memo r acc;
        acc
      end

(* {1 Point queries} *)

let points_to_bits ?(budget = default_budget) t node =
  match Intern.find_node t.sd.Solve.sd_it node with
  | None -> None
  | Some nid ->
      t.stats.q_queries <- t.stats.q_queries + 1;
      Some (backsolve t (ref budget) (Solve.solved_rep t.sd nid))

let decode_values t bits =
  let it = t.sd.Solve.sd_it in
  List.sort Node.compare_value
    (Util.Bitset.fold (fun vid acc -> Intern.value_of it vid :: acc) bits [])

let points_to ?budget t node = Option.map (decode_values t) (points_to_bits ?budget t node)

(* {1 Relation queries}

   These read the solved relation rows (view hierarchy, id
   registrations, listener registrations) demand-driven — no solver
   runs, no interner growth. *)

let views_of_listener t l =
  let it = t.sd.Solve.sd_it in
  (* entry ids whose listener abstraction matches, over every interface *)
  let entries = Util.Bitset.create () in
  for eid = 0 to Intern.listener_count it - 1 do
    let labs, _iface = Intern.listener_of it eid in
    if Node.equal_listener labs l then ignore (Util.Bitset.add entries eid)
  done;
  if Util.Bitset.is_empty entries then []
  else begin
    let acc = ref [] in
    let rows = t.sd.Solve.sd_solution.Graph.sol_listeners in
    for wid = Intern.view_count it - 1 downto 0 do
      match Graph.row rows wid with
      | Some b when Util.Bitset.intersects b entries -> acc := Intern.view_of it wid :: !acc
      | _ -> ()
    done;
    List.sort Node.compare_view !acc
  end

(* Displayable views of a holder: roots plus all their descendants
   (BFS over the solved child rows, include_self). *)
let displayable_bits t hid =
  let acc = Util.Bitset.create () in
  let pending = Queue.create () in
  (match Graph.row t.sd.Solve.sd_solution.Graph.sol_roots hid with
  | None -> ()
  | Some roots ->
      Util.Bitset.iter (fun wid -> if Util.Bitset.add acc wid then Queue.add wid pending) roots);
  while not (Queue.is_empty pending) do
    let wid = Queue.pop pending in
    match Graph.row t.sd.Solve.sd_solution.Graph.sol_children wid with
    | None -> ()
    | Some kids ->
        Util.Bitset.iter (fun k -> if Util.Bitset.add acc k then Queue.add k pending) kids
  done;
  acc

let activities_of_id t name =
  let it = t.sd.Solve.sd_it in
  let row_of raw =
    match Intern.rid_opt it raw with
    | None -> None
    | Some sym -> (
        match Graph.row t.sd.Solve.sd_by_id sym with
        | Some b when not (Util.Bitset.is_empty b) -> Some b
        | _ -> None)
  in
  let concrete =
    match
      Layouts.Resource.find_view_id (Layouts.Package.resources t.sd.Solve.sd_package) name
    with
    | None -> None
    | Some raw -> row_of raw
  in
  (* A view whose id came from [SetId (v, ⊤)] carries the sentinel row:
     its concrete id is unknown, so it matches every queried name. *)
  let with_id =
    match (concrete, row_of Node.top_view_id_raw) with
    | None, None -> None
    | (Some _ as b), None | None, (Some _ as b) -> b
    | Some a, Some b ->
        let u = Util.Bitset.copy a in
        Util.Bitset.union_delta ~into:u b ~on_new:(fun _ -> ());
        Some u
  in
  match with_id with
  | None -> []
  | Some with_id ->
      let acc = ref [] in
      List.iter
        (fun hid ->
          match Intern.holder_of it hid with
          | Node.H_act a ->
              if Util.Bitset.intersects (displayable_bits t hid) with_id then acc := a :: !acc
          | Node.H_dialog _ -> ())
        t.sd.Solve.sd_holder_ids;
      List.sort_uniq String.compare !acc
