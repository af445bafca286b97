type env = (string, Ast.ty) Hashtbl.t

let least_common_superclass hierarchy c1 c2 =
  if c1 = c2 then Some c1
  else if Hierarchy.subtype hierarchy c1 c2 then Some c2
  else if Hierarchy.subtype hierarchy c2 c1 then Some c1
  else
    (* Walk c1's superclass chain until a supertype of c2 is found. *)
    let chain = Hierarchy.superclass_chain hierarchy c1 in
    List.find_opt (fun s -> Hierarchy.subtype hierarchy c2 s) chain

let join hierarchy t1 t2 =
  match (t1, t2) with
  | Ast.Tint, Ast.Tint -> Some Ast.Tint
  | Ast.Tclass a, Ast.Tclass b -> (
      match least_common_superclass hierarchy a b with
      | Some c -> Some (Ast.Tclass c)
      | None -> None)
  | _ -> None

let ty_of env v = Hashtbl.find_opt env v

let class_of env v = match ty_of env v with Some (Ast.Tclass c) -> Some c | _ -> None

let infer ?cha_targets ~hierarchy ~external_return ~owner (m : Ast.meth) =
  let cha_targets =
    match cha_targets with
    | Some lookup -> lookup
    | None ->
        fun ~recv_ty name arity ->
          Hierarchy.cha_targets hierarchy ~recv_ty { Ast.mk_name = name; mk_arity = arity }
  in
  let env : env = Hashtbl.create 16 in
  let declared : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let set_declared v ty =
    Hashtbl.replace env v ty;
    Hashtbl.replace declared v ()
  in
  set_declared Ast.this_var (Ast.Tclass owner);
  List.iter (fun (v, ty) -> set_declared v ty) m.m_params;
  List.iter (fun (v, ty) -> set_declared v ty) m.m_locals;
  let changed = ref true in
  (* Variables whose definition sites have irreconcilable types: their
     type must stay unknown, or CHA built on it would be unsound. *)
  let conflicted : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  (* Merge an inferred def-site type into the environment; declared
     types always win. *)
  let update v ty =
    if not (Hashtbl.mem declared v) && not (Hashtbl.mem conflicted v) then
      match Hashtbl.find_opt env v with
      | None ->
          Hashtbl.replace env v ty;
          changed := true
      | Some old ->
          if not (Ast.equal_ty old ty) then (
            match join hierarchy old ty with
            | Some joined when not (Ast.equal_ty joined old) ->
                Hashtbl.replace env v joined;
                changed := true
            | Some _ -> ()
            | None ->
                Hashtbl.add conflicted v ();
                Hashtbl.remove env v;
                changed := true)
  in
  let return_ty_of_call recv m_name arity =
    let recv_ty = class_of env recv in
    match cha_targets ~recv_ty m_name arity with
    | (_, target) :: _ -> target.Ast.m_ret
    | [] -> external_return ~recv_ty m_name arity
  in
  let step stmt =
    match stmt with
    | Ast.New (x, c) -> update x (Ast.Tclass c)
    | Ast.Cast (x, c, _) -> update x (Ast.Tclass c)
    | Ast.Read_layout_id (x, _)
    | Ast.Read_view_id (x, _)
    | Ast.Read_layout_top x
    | Ast.Read_view_top x
    | Ast.Const_int (x, _) ->
        update x Ast.Tint
    | Ast.Const_null _ -> ()
    | Ast.Copy (x, y) -> ( match ty_of env y with Some ty -> update x ty | None -> ())
    | Ast.Read_field (x, y, f) -> (
        match class_of env y with
        | Some cls -> (
            match Hierarchy.field_ty hierarchy cls f with
            | Some ty -> update x ty
            | None -> ())
        | None -> ())
    | Ast.Invoke (Some z, recv, name, args) -> (
        match return_ty_of_call recv name (List.length args) with
        | Some ty -> update z ty
        | None -> ())
    | Ast.Invoke (None, _, _, _) | Ast.Write_field _ | Ast.Return _ -> ()
  in
  (* Run to the fixpoint, with no round budget: a variable goes from
     untyped to typed once, then only to strict supertypes, or to
     conflicted, which absorbs.  The subtype order is acyclic, so
     every round that changes something is a step along a finite
     chain. *)
  while !changed do
    changed := false;
    List.iter step m.m_body
  done;
  env
