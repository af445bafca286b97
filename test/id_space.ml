(* A captured solve's id-space content as text, for byte pins and for
   checks that a capture never changes: the interner's pools in id
   order, rendered with [Node.pp*], and the captured rows — the rep
   array, the per-representative points-to value ids, the relation and
   taint rows, the dynamic return dependencies, the per-op write
   targets and the inflation memo, in its table's order. *)
open Gator

let line buf fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt

let ints l = String.concat " " (List.map string_of_int l)

let pools it =
  let buf = Buffer.create 4096 in
  let pool name count render =
    line buf "%s %d" name count;
    for i = 0 to count - 1 do
      line buf "%d %s" i (render i)
    done
  in
  pool "values" (Intern.value_count it) (fun i -> Fmt.str "%a" Node.pp_value (Intern.value_of it i));
  pool "views" (Intern.view_count it) (fun i -> Fmt.str "%a" Node.pp_view (Intern.view_of it i));
  pool "nodes" (Intern.node_count it) (fun i -> Fmt.str "%a" Node.pp (Intern.node_of it i));
  pool "listeners" (Intern.listener_count it) (fun i ->
      let l, iface = Intern.listener_of it i in
      Fmt.str "%a %s" Node.pp_listener l iface);
  pool "holders" (Intern.holder_count it) (fun i -> Fmt.str "%a" Node.pp_holder (Intern.holder_of it i));
  pool "rids" (Intern.rid_count it) (fun i -> string_of_int (Intern.rid_of it i));
  Buffer.contents buf

let rows (sd : Solve.solved) =
  let buf = Buffer.create 4096 and sol = sd.sd_solution in
  let table name (rows : Graph.rows) =
    line buf "%s" name;
    Array.iteri
      (fun i row -> Option.iter (fun b -> line buf "%d: %s" i (ints (Util.Bitset.elements b))) row)
      rows
  in
  line buf "rep %s" (ints (Array.to_list sol.sol_rep));
  table "points-to" sol.sol_sets;
  table "children" sol.sol_children;
  table "parents" sol.sol_parents;
  table "ids" sol.sol_ids;
  table "by-id" sd.sd_by_id;
  table "roots" sol.sol_roots;
  table "listeners" sol.sol_listeners;
  table "taints" sol.sol_taints;
  line buf "ret-deps";
  List.iter
    (fun (r, rd) -> line buf "%d %s" r (match rd with Solve.RD_op i -> string_of_int i | RD_frags -> "frags"))
    sd.sd_ret_deps;
  table "targets" (Array.map Option.some sd.sd_targets);
  line buf "inflations";
  List.iter
    (fun (site, layout, views) ->
      line buf "%s %s: %s" (Fmt.str "%a" Node.pp_site site) layout
        (String.concat ", " (List.map (Fmt.str "%a" Node.pp_view) views)))
    (Graph.inflation_entries sd.sd_graph);
  Buffer.contents buf
