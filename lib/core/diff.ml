type op_change = {
  oc_site : Node.op_site;
  oc_role : string;
  oc_only_left : int;
  oc_only_right : int;
}

type t = {
  d_left : string;
  d_right : string;
  d_ops_only_left : Node.op_site list;
  d_ops_only_right : Node.op_site list;
  d_changed : op_change list;
  d_transitions_only_left : (string * string) list;
  d_transitions_only_right : (string * string) list;
}

module Site_map = Map.Make (struct
  type t = Node.op_site

  let compare = Node.compare_op_site
end)

(* Clone records (context sensitivity) of the same site are merged:
   the external meaning of a site's solution is the union. *)
let op_solutions (r : Analysis.t) =
  List.fold_left
    (fun acc (op : Graph.op) ->
      let views_of f = List.sort_uniq compare (f r op) in
      let entry =
        [
          ("receivers", List.map (fun v -> Node.V_view v) (views_of Analysis.op_receiver_views));
          ("arguments", List.map (fun v -> Node.V_view v) (views_of Analysis.op_child_views));
          ("results", List.map (fun v -> Node.V_view v) (views_of Analysis.op_result_views));
          ( "listeners",
            List.sort_uniq compare
              (List.map
                 (function
                   | Node.L_alloc site -> Node.V_obj site
                   | Node.L_act a -> Node.V_act a)
                 (Analysis.op_listeners r op)) );
        ]
      in
      Site_map.update op.site
        (function
          | None -> Some entry
          | Some existing ->
              Some
                (List.map2
                   (fun (role, old_values) (_, new_values) ->
                     (role, List.sort_uniq compare (old_values @ new_values)))
                   existing entry))
        acc)
    Site_map.empty (Analysis.ops r)

let diff_lists left right =
  let only_left = List.filter (fun v -> not (List.mem v right)) left in
  let only_right = List.filter (fun v -> not (List.mem v left)) right in
  (only_left, only_right)

let compare (left : Analysis.t) (right : Analysis.t) =
  let sols_left = op_solutions left in
  let sols_right = op_solutions right in
  let ops_only_left =
    Site_map.fold
      (fun site _ acc -> if Site_map.mem site sols_right then acc else site :: acc)
      sols_left []
  in
  let ops_only_right =
    Site_map.fold
      (fun site _ acc -> if Site_map.mem site sols_left then acc else site :: acc)
      sols_right []
  in
  let changed =
    Site_map.fold
      (fun site entry_left acc ->
        match Site_map.find_opt site sols_right with
        | None -> acc
        | Some entry_right ->
            List.fold_left2
              (fun acc (role, values_left) (_, values_right) ->
                let only_left, only_right = diff_lists values_left values_right in
                if only_left = [] && only_right = [] then acc
                else
                  {
                    oc_site = site;
                    oc_role = role;
                    oc_only_left = List.length only_left;
                    oc_only_right = List.length only_right;
                  }
                  :: acc)
              acc entry_left entry_right)
      sols_left []
  in
  let transitions_only_left, transitions_only_right =
    diff_lists (Analysis.transitions left) (Analysis.transitions right)
  in
  {
    d_left = left.app.Framework.App.name;
    d_right = right.app.Framework.App.name;
    d_ops_only_left = List.rev ops_only_left;
    d_ops_only_right = List.rev ops_only_right;
    d_changed = List.rev changed;
    d_transitions_only_left = transitions_only_left;
    d_transitions_only_right = transitions_only_right;
  }

let is_empty d =
  d.d_ops_only_left = [] && d.d_ops_only_right = [] && d.d_changed = []
  && d.d_transitions_only_left = [] && d.d_transitions_only_right = []

(* ------------------------------------------------------------------ *)
(* Graph-level edit scripts (incremental re-analysis).

   Coverage audit — every relation kind of the constraint graph a
   patch can change, and where the diff accounts for it:
   - direct flow edges (assignments, field flows, call bindings,
     return flows): per-source row comparison below;
   - CAST flow edges: compared by cast class NAME, not raw symbol.
     Each shape carries its own cast-symbol table, so old symbols are
     normalized into the new shape's space first; a cast class that
     vanished from the program gets a per-symbol sentinel [<= -2] so
     its edges can only ever compare unequal (comparing raw kind
     indices would silently treat a re-ordered cast table as a sea of
     spurious edge edits — or worse, mask real ones);
   - seeds: allocation results, resource-id constants, and the
     lifecycle/menu/dialog callback injections are all ordinary seeds,
     and so are the activity seeds behind DECLARATIVE [android:onClick]
     handlers — the seed diff covers every one of them, no special
     case needed;
   - operation nodes: matched as a multiset on the full static tuple
     (site, receiver id, argument ids, out id); a shifted statement
     index changes the site and is soundly treated as removed+added;
   - dynamic N_ret dependencies are deliberately NOT here: which ops
     re-fire when a method-return location grows is discovered at
     solve time, not extraction time, so it cannot be diffed
     statically.  The warm solver restores them from the captured
     solution ([Solve.solved.sd_ret_deps]) and runs its suspect
     fixpoint over them instead. *)

(* Multiset op matching on the full static tuple, of the old ops
   [\[lo0, hi0)] against the new ops [\[lo1, hi1)]: each new op, in
   order, takes the latest unmatched old op with its tuple.  The op
   site contains only strings, ints and flat variants, so polymorphic
   hashing is safe. *)
let match_ops (o : Solve.shape) (n : Solve.shape) ~old_to_new ~new_to_old (lo0, hi0) (lo1, hi1) =
  let tbl = Hashtbl.create ((2 * (hi0 - lo0)) + 1) in
  for oj = lo0 to hi0 - 1 do
    let site, recv, args, out = o.Solve.sh_ops.(oj) in
    Hashtbl.add tbl (site, recv, Array.to_list args, out) oj
  done;
  for oi = lo1 to hi1 - 1 do
    let site, recv, args, out = n.Solve.sh_ops.(oi) in
    let key = (site, recv, Array.to_list args, out) in
    match Hashtbl.find_opt tbl key with
    | Some oj ->
        Hashtbl.remove tbl key;
        old_to_new.(oj) <- oi;
        new_to_old.(oi) <- oj
    | None -> ()
  done

let edit_script ~old_:(o : Solve.shape) ~new_:(n : Solve.shape) =
  let new_sym = Hashtbl.create 16 in
  Array.iteri (fun i name -> Hashtbl.replace new_sym name i) n.Solve.sh_cast_names;
  let old_kind k =
    if k < 0 then -1
    else
      match Hashtbl.find_opt new_sym o.Solve.sh_cast_names.(k) with
      | Some i -> i
      | None -> -2 - k
  in
  (* Rows are sets (edge insertion is idempotent) and small, so
     mismatched rows are diffed as lists; identical rows — the vast
     majority — are skipped by an element-wise scan. *)
  let removed_edges = ref [] in
  let added_edges = ref [] in
  let row_old src =
    if src >= o.Solve.sh_nodes then []
    else
      List.init
        (o.Solve.sh_row.(src + 1) - o.Solve.sh_row.(src))
        (fun i ->
          let e = o.Solve.sh_row.(src) + i in
          (old_kind o.Solve.sh_ekind.(e), o.Solve.sh_edst.(e)))
  in
  let row_new src =
    if src >= n.Solve.sh_nodes then []
    else
      List.init
        (n.Solve.sh_row.(src + 1) - n.Solve.sh_row.(src))
        (fun i ->
          let e = n.Solve.sh_row.(src) + i in
          (n.Solve.sh_ekind.(e), n.Solve.sh_edst.(e)))
  in
  for src = 0 to max o.Solve.sh_nodes n.Solve.sh_nodes - 1 do
    let same =
      src < o.Solve.sh_nodes && src < n.Solve.sh_nodes
      && o.Solve.sh_row.(src + 1) - o.Solve.sh_row.(src)
         = n.Solve.sh_row.(src + 1) - n.Solve.sh_row.(src)
      &&
      let len = n.Solve.sh_row.(src + 1) - n.Solve.sh_row.(src) in
      let rec eq i =
        i >= len
        ||
        let eo = o.Solve.sh_row.(src) + i and en = n.Solve.sh_row.(src) + i in
        o.Solve.sh_edst.(eo) = n.Solve.sh_edst.(en)
        && old_kind o.Solve.sh_ekind.(eo) = n.Solve.sh_ekind.(en)
        && eq (i + 1)
      in
      eq 0
    in
    if not same then begin
      let ro = row_old src and rn = row_new src in
      List.iter
        (fun (k, d) -> if not (List.mem (k, d) rn) then removed_edges := (src, k, d) :: !removed_edges)
        ro;
      List.iter
        (fun (k, d) -> if not (List.mem (k, d) ro) then added_edges := (src, k, d) :: !added_edges)
        rn
    end
  done;
  (* Seeds are sorted (node, value) pairs: a two-pointer merge. *)
  let removed_seeds = ref [] in
  let added_seeds = ref [] in
  let so = o.Solve.sh_seeds and sn = n.Solve.sh_seeds in
  let i = ref 0 and j = ref 0 in
  while !i < Array.length so || !j < Array.length sn do
    if !i >= Array.length so then begin
      added_seeds := sn.(!j) :: !added_seeds;
      incr j
    end
    else if !j >= Array.length sn then begin
      removed_seeds := so.(!i) :: !removed_seeds;
      incr i
    end
    else
      let c = Stdlib.compare so.(!i) sn.(!j) in
      if c = 0 then begin
        incr i;
        incr j
      end
      else if c < 0 then begin
        removed_seeds := so.(!i) :: !removed_seeds;
        incr i
      end
      else begin
        added_seeds := sn.(!j) :: !added_seeds;
        incr j
      end
  done;
  let old_to_new = Array.make (Array.length o.Solve.sh_ops) (-1) in
  let new_to_old = Array.make (Array.length n.Solve.sh_ops) (-1) in
  match_ops o n ~old_to_new ~new_to_old (0, Array.length o.Solve.sh_ops) (0, Array.length n.Solve.sh_ops);
  {
    Solve.es_removed_edges = Array.of_list (List.rev !removed_edges);
    es_added_edges = Array.of_list (List.rev !added_edges);
    es_removed_seeds = Array.of_list (List.rev !removed_seeds);
    es_added_seeds = Array.of_list (List.rev !added_seeds);
    es_old_to_new = old_to_new;
    es_new_to_old = new_to_old;
    es_moved = None;
  }

(* Is the pair in the sorted pairs [a]? *)
let mem_sorted (a : (int * int) array) p =
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let c = Stdlib.compare a.(mid) p in
    c = 0 || if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* The same script from a fragment assembly ([Incremental.assemble]):
   the patched graph replays every unedited method's log slice, so
   only the edited methods' slices and the dialog seed pass can
   differ, and the delta freeze already compared the flow rows they
   emit from.
   - edges: the freeze's changed rows, diffed as [edit_script] diffs
     a mismatched row;
   - seeds: the old and new edited slices' and dialog passes' seeds,
     each reported only when the other shape's sorted pairs lack it
     (another method may still seed it);
   - ops: an unedited run of methods maps by offset; an edited
     method's old and new ops are matched as [edit_script] matches
     them.  The pairs can differ from [edit_script]'s only among ops
     with one static tuple: the twin methods of an unedited class
     (an edited class with twin keys declines in [Extract.reextract]),
     whose equal ops the diff may pair across methods.  Its choice
     among equal tuples is as arbitrary as the offset's. *)
let delta_edit_script ~prev ~graph ~edited ~(freeze : Graph.freeze_report) ~old_:(o : Solve.shape)
    ~new_:(n : Solve.shape) =
  match (freeze.fz_path, Graph.fragments prev, Graph.fragments graph) with
  | Graph.Full _, _, _ -> Error "the flow froze in full"
  | _, Some fr0, Some fr1 ->
      let removed_edges = ref [] and added_edges = ref [] in
      List.iter
        (fun (src, ro, rn) ->
          Array.iter (fun (k, d) -> if not (Array.mem (k, d) rn) then removed_edges := (src, k, d) :: !removed_edges) ro;
          Array.iter (fun (k, d) -> if not (Array.mem (k, d) ro) then added_edges := (src, k, d) :: !added_edges) rn)
        freeze.fz_changed;
      let methods = Array.length edited in
      (* the seeds of [g]'s edited slices and dialog pass that [other]'s
         sorted pairs lack, sorted and deduplicated *)
      let seeds g (fr : Graph.fragments) other =
        let acc = ref [] in
        let scan lo hi =
          for i = lo to hi - 1 do
            let p = Graph.seed_ids_at g i in
            if not (mem_sorted other p) then acc := p :: !acc
          done
        in
        Array.iteri (fun k e -> if e then scan fr.fr_starts.(k).c_seeds fr.fr_starts.(k + 1).c_seeds) edited;
        scan fr.fr_dialogs fr.fr_starts.(methods + 1).c_seeds;
        Array.of_list (List.sort_uniq Stdlib.compare !acc)
      in
      let old_to_new = Array.make (Array.length o.Solve.sh_ops) (-1) in
      let new_to_old = Array.make (Array.length n.Solve.sh_ops) (-1) in
      let ops (fr : Graph.fragments) lo hi = (fr.fr_starts.(lo).c_ops, fr.fr_starts.(hi).c_ops) in
      let rec runs k =
        if k < methods then
          if edited.(k) then begin
            match_ops o n ~old_to_new ~new_to_old (ops fr0 k (k + 1)) (ops fr1 k (k + 1));
            runs (k + 1)
          end
          else begin
            let j = ref k in
            while !j < methods && not edited.(!j) do
              incr j
            done;
            let lo0, hi0 = ops fr0 k !j and lo1, _ = ops fr1 k !j in
            for i = 0 to hi0 - lo0 - 1 do
              old_to_new.(lo0 + i) <- lo1 + i;
              new_to_old.(lo1 + i) <- lo0 + i
            done;
            runs !j
          end
      in
      runs 0;
      Ok
        {
          Solve.es_removed_edges = Array.of_list (List.rev !removed_edges);
          es_added_edges = Array.of_list (List.rev !added_edges);
          es_removed_seeds = seeds prev fr0 n.Solve.sh_seeds;
          es_added_seeds = seeds graph fr1 o.Solve.sh_seeds;
          es_old_to_new = old_to_new;
          es_new_to_old = new_to_old;
          es_moved = Some freeze.fz_moved;
        }
  | _ -> Error "a graph recorded no fragments"

let edit_script_is_empty (es : Solve.edit_script) =
  Array.length es.es_removed_edges = 0
  && Array.length es.es_added_edges = 0
  && Array.length es.es_removed_seeds = 0
  && Array.length es.es_added_seeds = 0
  && Array.for_all (fun x -> x >= 0) es.es_old_to_new
  && Array.for_all (fun x -> x >= 0) es.es_new_to_old

let pp ppf d =
  if is_empty d then Fmt.pf ppf "no differences between %s and %s" d.d_left d.d_right
  else begin
    Fmt.pf ppf "@[<v>diff %s vs %s:" d.d_left d.d_right;
    List.iter (fun s -> Fmt.pf ppf "@,  op only in %s: %a" d.d_left Node.pp_op_site s) d.d_ops_only_left;
    List.iter
      (fun s -> Fmt.pf ppf "@,  op only in %s: %a" d.d_right Node.pp_op_site s)
      d.d_ops_only_right;
    List.iter
      (fun c ->
        Fmt.pf ppf "@,  %a %s: -%d +%d" Node.pp_op_site c.oc_site c.oc_role c.oc_only_left
          c.oc_only_right)
      d.d_changed;
    List.iter
      (fun (a, b) -> Fmt.pf ppf "@,  transition only in %s: %s -> %s" d.d_left a b)
      d.d_transitions_only_left;
    List.iter
      (fun (a, b) -> Fmt.pf ppf "@,  transition only in %s: %s -> %s" d.d_right a b)
      d.d_transitions_only_right;
    Fmt.pf ppf "@]"
  end
