(* Patch-style edits over corpus apps: the JSON vocabulary the
   incremental tests and the CLI's patched-app checks share.  Edits are
   source-level (statements and methods), so an applied patch exercises
   the whole incremental pipeline: re-extraction, shape diffing, warm
   re-solve. *)

type edit =
  | Rename_view_id of { from_ : string; to_ : string }
  | Remove_stmt of { cls : string; meth : string; arity : int; index : int }
  | Add_stmt of { cls : string; meth : string; arity : int; stmt : Jir.Ast.stmt }
  | Add_method of { cls : string; name : string; params : string list; body : Jir.Ast.stmt list }

type t = edit list

(* ------------------------------------------------------------------ *)
(* JSON decoding *)

let ( let* ) = Result.bind

let str = function Util.Json.String s -> Ok s | j -> Error (Util.Json.to_string j ^ ": not a string")

let int_ = function Util.Json.Int n -> Ok n | j -> Error (Util.Json.to_string j ^ ": not an int")

let field name j =
  match Util.Json.member name j with
  | Some v -> Ok v
  | None -> Error ("missing field " ^ name)

let str_field name j =
  let* v = field name j in
  str v

let int_field name j =
  let* v = field name j in
  int_ v

let opt_var = function Util.Json.Null -> Ok None | j -> Result.map Option.some (str j)

let rec map_m f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_m f rest in
      Ok (y :: ys)

(* Mini statement encoding: {"new": ["x", "C"]}, {"copy": ["x", "y"]},
   {"read_view_id": ["x", "name"]}, {"read_layout_id": ["x", "name"]},
   {"read_view_top": "x"}, {"read_layout_top": "x"},
   {"const_int": ["x", 7]}, {"const_null": "x"},
   {"read_field": ["x", "y", "f"]}, {"write_field": ["x", "f", "y"]},
   {"cast": ["x", "C", "y"]},
   {"invoke": [lhs-or-null, "recv", "meth", ["a1", ...]]},
   {"return": var-or-null}. *)
let stmt_of_json j =
  match j with
  | Util.Json.Obj [ (tag, payload) ] -> (
      let two f =
        match payload with
        | Util.Json.List [ a; b ] ->
            let* a = str a in
            let* b = str b in
            Ok (f a b)
        | _ -> Error (tag ^ ": expected two strings")
      in
      let three f =
        match payload with
        | Util.Json.List [ a; b; c ] ->
            let* a = str a in
            let* b = str b in
            let* c = str c in
            Ok (f a b c)
        | _ -> Error (tag ^ ": expected three strings")
      in
      match tag with
      | "new" -> two (fun x c -> Jir.Ast.New (x, c))
      | "copy" -> two (fun x y -> Jir.Ast.Copy (x, y))
      | "read_view_id" -> two (fun x n -> Jir.Ast.Read_view_id (x, n))
      | "read_layout_id" -> two (fun x n -> Jir.Ast.Read_layout_id (x, n))
      | "read_view_top" ->
          let* x = str payload in
          Ok (Jir.Ast.Read_view_top x)
      | "read_layout_top" ->
          let* x = str payload in
          Ok (Jir.Ast.Read_layout_top x)
      | "read_field" -> three (fun x y f -> Jir.Ast.Read_field (x, y, f))
      | "write_field" -> three (fun x f y -> Jir.Ast.Write_field (x, f, y))
      | "cast" -> three (fun x c y -> Jir.Ast.Cast (x, c, y))
      | "const_int" -> (
          match payload with
          | Util.Json.List [ a; b ] ->
              let* a = str a in
              let* b = int_ b in
              Ok (Jir.Ast.Const_int (a, b))
          | _ -> Error "const_int: expected [var, int]")
      | "const_null" ->
          let* x = str payload in
          Ok (Jir.Ast.Const_null x)
      | "invoke" -> (
          match payload with
          | Util.Json.List [ lhs; recv; name; Util.Json.List args ] ->
              let* lhs = opt_var lhs in
              let* recv = str recv in
              let* name = str name in
              let* args = map_m str args in
              Ok (Jir.Ast.Invoke (lhs, recv, name, args))
          | _ -> Error "invoke: expected [lhs, recv, name, [args]]")
      | "return" ->
          let* x = opt_var payload in
          Ok (Jir.Ast.Return x)
      | _ -> Error ("unknown statement tag " ^ tag))
  | _ -> Error "statement: expected a single-field object"

let edit_of_json j =
  let* tag = str_field "edit" j in
  match tag with
  | "rename_view_id" ->
      let* from_ = str_field "from" j in
      let* to_ = str_field "to" j in
      Ok (Rename_view_id { from_; to_ })
  | "remove_stmt" ->
      let* cls = str_field "cls" j in
      let* meth = str_field "meth" j in
      let* arity = int_field "arity" j in
      let* index = int_field "index" j in
      Ok (Remove_stmt { cls; meth; arity; index })
  | "add_stmt" ->
      let* cls = str_field "cls" j in
      let* meth = str_field "meth" j in
      let* arity = int_field "arity" j in
      let* sj = field "stmt" j in
      let* stmt = stmt_of_json sj in
      Ok (Add_stmt { cls; meth; arity; stmt })
  | "add_method" ->
      let* cls = str_field "cls" j in
      let* name = str_field "name" j in
      let* pj = field "params" j in
      let* params =
        match pj with Util.Json.List l -> map_m str l | _ -> Error "params: expected a list"
      in
      let* bj = field "body" j in
      let* body =
        match bj with Util.Json.List l -> map_m stmt_of_json l | _ -> Error "body: expected a list"
      in
      Ok (Add_method { cls; name; params; body })
  | _ -> Error ("unknown edit tag " ^ tag)

let of_json j =
  match j with
  | Util.Json.List l -> map_m edit_of_json l
  | _ -> Error "patch: expected a list of edits"

let of_string s =
  let* j = Util.Json.of_string s in
  of_json j

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> of_string contents

(* ------------------------------------------------------------------ *)
(* Application *)

let map_meth_body f (m : Jir.Ast.meth) = { m with Jir.Ast.m_body = f m.Jir.Ast.m_body }

(* Rewrite the method [cls.meth/arity] with [f], which may refuse. *)
let update_meth ~cls ~meth ~arity f (program : Jir.Ast.program) =
  let hit = ref false and refused = ref None in
  let classes =
    List.map
      (fun (c : Jir.Ast.cls) ->
        if c.c_name <> cls then c
        else
          {
            c with
            Jir.Ast.c_methods =
              List.map
                (fun (m : Jir.Ast.meth) ->
                  if m.m_name = meth && List.length m.m_params = arity then begin
                    hit := true;
                    match f m with
                    | Ok m -> m
                    | Error e ->
                        refused := Some e;
                        m
                  end
                  else m)
                c.c_methods;
          })
      program.Jir.Ast.p_classes
  in
  match !refused with
  | Some e -> Error e
  | None ->
      if !hit then Ok { Jir.Ast.p_classes = classes }
      else Error (Printf.sprintf "no method %s.%s/%d" cls meth arity)

let apply_edit program = function
  | Rename_view_id { from_; to_ } ->
      let rename = function
        | Jir.Ast.Read_view_id (x, n) when n = from_ -> Jir.Ast.Read_view_id (x, to_)
        | s -> s
      in
      Ok
        {
          Jir.Ast.p_classes =
            List.map
              (fun (c : Jir.Ast.cls) ->
                {
                  c with
                  Jir.Ast.c_methods =
                    List.map (map_meth_body (List.map rename)) c.c_methods;
                })
              program.Jir.Ast.p_classes;
        }
  | Remove_stmt { cls; meth; arity; index } ->
      (* NOTE: removal shifts the statement indices of everything after
         it in the same method, so every later site changes name; the
         diff soundly treats those ops as removed + added. *)
      update_meth ~cls ~meth ~arity
        (fun m ->
          let length = List.length m.Jir.Ast.m_body in
          if index < 0 || index >= length then
            Error
              (Printf.sprintf "remove_stmt: %s.%s/%d has no statement %d (its body has %d)" cls meth arity index
                 length)
          else Ok (map_meth_body (List.filteri (fun i _ -> i <> index)) m))
        program
  | Add_stmt { cls; meth; arity; stmt } ->
      update_meth ~cls ~meth ~arity (fun m -> Ok (map_meth_body (fun body -> body @ [ stmt ]) m)) program
  | Add_method { cls; name; params; body } ->
      let m =
        {
          Jir.Ast.m_name = name;
          m_params = List.map (fun p -> (p, Jir.Ast.Tclass "java.lang.Object")) params;
          m_ret = None;
          m_locals = [];
          m_body = body;
        }
      in
      let hit = ref false in
      let classes =
        List.map
          (fun (c : Jir.Ast.cls) ->
            if c.c_name <> cls then c
            else begin
              hit := true;
              { c with Jir.Ast.c_methods = c.c_methods @ [ m ] }
            end)
          program.Jir.Ast.p_classes
      in
      if !hit then Ok { Jir.Ast.p_classes = classes } else Error ("no class " ^ cls)

let apply (app : Framework.App.t) patch =
  let* program = List.fold_left (fun acc e -> Result.bind acc (fun p -> apply_edit p e)) (Ok app.Framework.App.program) patch in
  (* The package is shared physically: an unchanged layout side keeps
     the warm guard's pointer-equality fast path.  A body edit keeps
     every class and method key, so the hierarchy is reused. *)
  Ok (Framework.App.with_program app program)
