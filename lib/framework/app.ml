type t = {
  name : string;
  program : Jir.Ast.program;
  package : Layouts.Package.t;
  hierarchy : Jir.Hierarchy.t;
}

let make ~name program package =
  { name; program; package; hierarchy = Api.hierarchy program }

let with_program t program =
  match Jir.Hierarchy.with_program t.hierarchy program with
  | Some hierarchy -> { t with program; hierarchy }
  | None -> make ~name:t.name program t.package

let of_source ~name ~code ~layouts =
  match Jir.Parser.parse_program_result code with
  | Error e -> Error e
  | Ok program -> (
      let package = Layouts.Package.create () in
      let rec add_layouts = function
        | [] -> Ok ()
        | (layout_name, xml) :: rest -> (
            match Layouts.Package.add_xml package ~name:layout_name xml with
            | Ok () -> add_layouts rest
            | Error e -> Error (Printf.sprintf "layout %s: %s" layout_name e))
      in
      match add_layouts layouts with
      | Error e -> Error e
      | Ok () -> (
          match make ~name program package with
          | app -> Ok app
          | exception Jir.Hierarchy.Hierarchy_error e -> Error e))

let filter_classes t predicate =
  List.filter (fun (c : Jir.Ast.cls) -> predicate t.hierarchy c.c_name) t.program.p_classes

let activity_classes t = filter_classes t Views.is_activity_class

let listener_classes t = filter_classes t Listeners.is_listener_class

let view_classes t = filter_classes t Views.is_view_class

let typing_env ?cha_targets t ~owner m =
  Jir.Typing.infer ?cha_targets ~hierarchy:t.hierarchy ~external_return:Api.return_ty ~owner m

let diagnostics t = Jir.Wellformed.check ~platform:Api.platform_decls t.program
