(* Point queries over a captured solution: every answer is a
   [Reader] read of the captured graph, decoded on call. *)

type stats = {
  mutable q_queries : int;  (** point queries answered *)
  mutable q_memo_hits : int;
  mutable q_expanded : int;
  mutable q_generator_hits : int;
  mutable q_budget_fallbacks : int;
}

type t = { sd : Solve.solved; stats : stats }

let create ~hierarchy:_ sd =
  let stats = { q_queries = 0; q_memo_hits = 0; q_expanded = 0; q_generator_hits = 0; q_budget_fallbacks = 0 } in
  { sd; stats }

let stats t = t.stats

let interner t = Solve.solved_interner t.sd

let graph t = t.sd.Solve.sd_graph

let points_to ?budget:_ t node =
  let values = Reader.find_points_to (graph t) node in
  if Option.is_some values then t.stats.q_queries <- t.stats.q_queries + 1;
  values

let views_of_listener t l = Reader.views_with_listener (graph t) l

let activities_of_id t name =
  let g = graph t in
  let carriers = Reader.id_carriers ~by_id:t.sd.Solve.sd_by_id g t.sd.Solve.sd_package name in
  (* a holder shows a carrier iff one of its roots is above one *)
  let sol = Graph.solution g and acc = ref [] in
  let above = Graph.ancestors sol carriers in
  List.iter
    (fun hid ->
      match (Intern.holder_of (interner t) hid, Graph.row sol.Graph.sol_roots hid) with
      | Node.H_act a, Some roots when Util.Bitset.intersects roots above -> acc := a :: !acc
      | _ -> ())
    t.sd.Solve.sd_holder_ids;
  List.sort_uniq String.compare !acc
