(* Point queries over a captured solution (ROADMAP
   "analysis-as-a-service").

   A [Query.t] is a read-only view of a [Solve.solved]: every answer is
   a lookup in the solver's id-level rows ([Graph.solution]) plus an
   interner decode.  Points-to reads the node's representative row
   through [Graph.points_to_row], the same rule [Graph]'s readers use,
   so an answer equals [Analysis.values_at] on the same state. *)

type stats = {
  mutable q_queries : int;  (** point queries answered *)
  mutable q_memo_hits : int;
  mutable q_expanded : int;
  mutable q_generator_hits : int;
  mutable q_budget_fallbacks : int;
}

type t = { sd : Solve.solved; stats : stats }

let create ~hierarchy:_ sd =
  {
    sd;
    stats =
      {
        q_queries = 0;
        q_memo_hits = 0;
        q_expanded = 0;
        q_generator_hits = 0;
        q_budget_fallbacks = 0;
      };
  }

let stats t = t.stats

let interner t = t.sd.Solve.sd_it

(* {1 Point queries} *)

let points_to ?budget:_ t node =
  let it = t.sd.Solve.sd_it in
  match Intern.find_node it node with
  | None -> None
  | Some nid ->
      t.stats.q_queries <- t.stats.q_queries + 1;
      let values =
        match Graph.points_to_row t.sd.Solve.sd_solution nid with
        | None -> []
        | Some bits -> Util.Bitset.fold (fun vid acc -> Intern.value_of it vid :: acc) bits []
      in
      Some (List.sort Node.compare_value values)

(* {1 Relation queries}

   These read the solved relation rows (view hierarchy, id
   registrations, listener registrations) — no solver runs, no
   interner growth. *)

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
      let sol = t.sd.Solve.sd_solution in
      let acc = ref [] in
      List.iter
        (fun hid ->
          match Intern.holder_of it hid with
          | Node.H_act a ->
              if Util.Bitset.intersects (Graph.holder_views sol hid) with_id then acc := a :: !acc
          | Node.H_dialog _ -> ())
        t.sd.Solve.sd_holder_ids;
      List.sort_uniq String.compare !acc
