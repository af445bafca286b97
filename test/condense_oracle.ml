(* The reference condensation: the freeze's condensation step as it
   stood before the stamp-array version, one pass over every node's
   edges deduplicating ⟨rep src, kind, rep dst⟩ triples through a hash
   table.  Kept only as the oracle [test_graph] holds
   [Graph.frozen_flow] to. *)

let build_condensed n row edst ekind rep =
  let seen = Hashtbl.create 256 in
  let lists = Array.make n [] in
  (* (kind, rep dst), newest first per rep *)
  let total = ref 0 in
  for u = 0 to n - 1 do
    let ru = rep.(u) in
    for e = row.(u) to row.(u + 1) - 1 do
      let rv = rep.(edst.(e)) in
      if ru <> rv then begin
        let k = ekind.(e) in
        if not (Hashtbl.mem seen (ru, k, rv)) then begin
          Hashtbl.add seen (ru, k, rv) ();
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
