(* Seeded inputs.  The program under test only ever sees what these
   functions produce: source text, rewritten apps, request payloads. *)

module Ast = Jir.Ast

(* A paper-corpus app rendered to the text a user would hand the
   analysis: ALite source plus one XML document per layout. *)
type source = { s_name : string; s_code : string; s_layouts : (string * string) list; s_bytes : int }

let render (app : Framework.App.t) =
  let code = Jir.Pp.program_to_string app.program in
  let layouts =
    List.map
      (fun (d : Layouts.Layout.def) -> (d.name, Fmt.str "%a" Layouts.Layout.pp d))
      (Layouts.Package.raw_layouts app.package)
  in
  let bytes = List.fold_left (fun n (_, x) -> n + String.length x) (String.length code) layouts in
  { s_name = app.name; s_code = code; s_layouts = layouts; s_bytes = bytes }

let of_source s =
  match Framework.App.of_source ~name:s.s_name ~code:s.s_code ~layouts:s.s_layouts with
  | Ok app -> app
  | Error e -> failwith (Printf.sprintf "%s does not re-parse: %s" s.s_name e)

let spec name =
  match Corpus.Apps.by_name name with Some s -> s | None -> invalid_arg ("no corpus app " ^ name)

(* Seeded Fisher-Yates order of [0, n). *)
let order rng n = Array.of_list (Util.Prng.shuffle rng (List.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* Sound mode: unknown-id markers *)

let map_bodies f (p : Ast.program) =
  {
    Ast.p_classes =
      List.map
        (fun (c : Ast.cls) ->
          { c with c_methods = List.map (fun (m : Ast.meth) -> { m with m_body = f c m m.m_body }) c.c_methods })
        p.p_classes;
  }

let is_id_read = function Ast.Read_view_id _ | Ast.Read_layout_id _ -> true | _ -> false

let id_reads (app : Framework.App.t) =
  List.fold_left
    (fun n (c : Ast.cls) ->
      List.fold_left
        (fun n (m : Ast.meth) -> n + List.length (List.filter is_id_read m.m_body))
        n c.c_methods)
    0 app.program.p_classes

(* Turn [count] of the app's [R.id.f] / [R.layout.f] reads, picked by
   [rng], into their [R.id.?] / [R.layout.?] forms. *)
let inject_top rng ~count (app : Framework.App.t) =
  let total = id_reads app in
  let chosen = Hashtbl.create 16 in
  List.iteri (fun i k -> if i < count then Hashtbl.replace chosen k ()) (Util.Prng.shuffle rng (List.init total Fun.id));
  let k = ref 0 in
  let program =
    map_bodies
      (fun _ _ body ->
        List.map
          (fun st ->
            if not (is_id_read st) then st
            else begin
              let hit = Hashtbl.mem chosen !k in
              incr k;
              match st with
              | Ast.Read_view_id (x, _) when hit -> Ast.Read_view_top x
              | Ast.Read_layout_id (x, _) when hit -> Ast.Read_layout_top x
              | st -> st
            end)
          body)
      app.program
  in
  Framework.App.make ~name:app.name program app.package

(* ------------------------------------------------------------------ *)
(* Location sampling *)

let defined_var = function
  | Ast.New (x, _)
  | Ast.Copy (x, _)
  | Ast.Read_field (x, _, _)
  | Ast.Read_layout_id (x, _)
  | Ast.Read_view_id (x, _)
  | Ast.Read_layout_top x
  | Ast.Read_view_top x
  | Ast.Const_int (x, _)
  | Ast.Const_null x
  | Ast.Cast (x, _, _)
  | Ast.Invoke (Some x, _, _, _) ->
      Some x
  | Ast.Invoke (None, _, _, _) | Ast.Write_field _ | Ast.Return _ -> None

(* Every variable the app's methods assign, as analysis locations, in
   program order (duplicates removed). *)
let locations (app : Framework.App.t) =
  let seen = Hashtbl.create 1024 in
  List.concat_map
    (fun (c : Ast.cls) ->
      List.concat_map
        (fun (m : Ast.meth) ->
          let arity = List.length m.m_params in
          List.filter_map
            (fun st ->
              match defined_var st with
              | Some x when not (Hashtbl.mem seen (c.c_name, m.m_name, arity, x)) ->
                  Hashtbl.add seen (c.c_name, m.m_name, arity, x) ();
                  Some (Gator.Analysis.var ~cls:c.c_name ~meth:m.m_name ~arity x)
              | _ -> None)
            m.m_body)
        c.c_methods)
    app.program.p_classes

(* [n] seeded locations whose solution set is nonempty. *)
let sample_nonempty rng (r : Gator.Analysis.t) locs n =
  let live = Array.of_list (List.filter (fun l -> Gator.Analysis.values_at r l <> []) locs) in
  if Array.length live = 0 then invalid_arg "Inputs.sample_nonempty: no live locations";
  let shuffled = Array.of_list (Util.Prng.shuffle rng (Array.to_list live)) in
  Array.init n (fun i -> shuffled.(i mod Array.length shuffled))

let render_values vs = List.map (Fmt.str "%a" Gator.Node.pp_value) vs

(* ------------------------------------------------------------------ *)
(* Serve: read requests and apply/revert patches *)

let payload req = Util.Json.to_string (Server.Protocol.request_to_json req)

type read = { r_app : string; r_method : string; r_payload : string }

(* The read vocabulary of one resident app: points-to of its assigned
   locations, views of its listeners, activities of its view ids. *)
let reads_of (r : Gator.Analysis.t) =
  let app = r.app in
  let name = app.Framework.App.name in
  let points =
    List.map
      (fun node ->
        {
          r_app = name;
          r_method = "points-to-of-node";
          r_payload = payload (Server.Protocol.R_points_to { app = name; node; budget = None });
        })
      (locations app)
  in
  let listeners =
    List.sort_uniq Gator.Node.compare_listener
      (List.concat_map
         (fun v -> List.map fst (Gator.Analysis.listeners_of_view r v))
         (Gator.Graph.views_with_listeners r.graph))
  in
  let listener_reads =
    List.map
      (fun listener ->
        {
          r_app = name;
          r_method = "views-of-listener";
          r_payload = payload (Server.Protocol.R_views_of_listener { app = name; listener });
        })
      listeners
  in
  let ids =
    List.sort_uniq String.compare
      (List.concat_map Layouts.Layout.ids (Layouts.Package.layouts app.package))
  in
  let id_reads =
    List.map
      (fun id ->
        {
          r_app = name;
          r_method = "activities-of-id";
          r_payload = payload (Server.Protocol.R_activities_of_id { app = name; id });
        })
      ids
  in
  (Array.of_list points, Array.of_list listener_reads, Array.of_list id_reads)

(* A seeded request cycle.  No trace of real daemon traffic backs any
   particular mix, so the mix is neutral and stated: each request is
   one of the three read kinds with equal odds, and within a kind every
   target of every resident app is equally likely (so larger apps get
   proportionally more reads).  A kind with no targets at all is left
   out. *)
let request_mix rng apps n =
  let pools = List.map reads_of apps in
  let pool f = Array.concat (List.map f pools) in
  let kinds =
    List.filter
      (fun a -> Array.length a > 0)
      [ pool (fun (p, _, _) -> p); pool (fun (_, l, _) -> l); pool (fun (_, _, i) -> i) ]
  in
  Array.init n (fun _ ->
      let a = Util.Prng.choose rng kinds in
      a.(Util.Prng.int rng (Array.length a)))

(* One patch pair in the [Corpus.Patch] vocabulary: append the copy
   [p_dst = p_src] to an application method, then remove it again, so
   the resident app returns to its base after every pair.  [p_dst] is
   a variable the method passes on to other locals, and [p_src] carries
   values [p_dst] does not yet have, so the new flow edge changes
   [p_dst] and the locations it flows into. *)
type patch = {
  p_cls : string;
  p_meth : string;
  p_arity : int;
  p_index : int;  (** body length before the add: where the statement lands *)
  p_dst : string;
  p_src : string;
}

(* The variables a method body passes on to other locals: copied or
   cast into another local, or stored into a field the body reads back. *)
let passed_on body =
  let read_back = List.filter_map (function Ast.Read_field (_, _, f) -> Some f | _ -> None) body in
  List.concat_map
    (function
      | Ast.Copy (x, y) | Ast.Cast (x, _, y) when x <> y -> [ y ]
      | Ast.Write_field (_, f, y) when List.mem f read_back -> [ y ]
      | _ -> [])
    body

(* Every candidate copy in the app's application methods, judged on the
   cold analysis [r] of the base app: [dst] is assigned in the method
   and passed on to another local there, and [src] is assigned there
   and has a value [dst] lacks. *)
let flow_sites (r : Gator.Analysis.t) =
  let app = r.app in
  Array.of_list
    (List.concat_map
       (fun (c : Ast.cls) ->
         if c.c_kind <> `Class then []
         else
           List.concat_map
             (fun (m : Ast.meth) ->
               let arity = List.length m.m_params in
               let values x = Gator.Analysis.values_at r (Gator.Analysis.var ~cls:c.c_name ~meth:m.m_name ~arity x) in
               let defs = List.sort_uniq String.compare (List.filter_map defined_var m.m_body) in
               let used = passed_on m.m_body in
               let vals = List.map (fun x -> (x, values x)) defs in
               List.concat_map
                 (fun (dst, dv) ->
                   if not (List.mem dst used) then []
                   else
                     List.filter_map
                       (fun (src, sv) ->
                         if src = dst || List.for_all (fun v -> List.mem v dv) sv then None
                         else
                           Some
                             {
                               p_cls = c.c_name;
                               p_meth = m.m_name;
                               p_arity = arity;
                               p_index = List.length m.m_body;
                               p_dst = dst;
                               p_src = src;
                             })
                       vals)
                 vals)
             c.c_methods)
       app.program.p_classes)

(* Methods of the app's application classes. *)
let app_methods (app : Framework.App.t) =
  List.fold_left
    (fun n (c : Ast.cls) -> if c.c_kind = `Class then n + List.length c.c_methods else n)
    0 app.program.p_classes

let add_edit p =
  Corpus.Patch.Add_stmt { cls = p.p_cls; meth = p.p_meth; arity = p.p_arity; stmt = Ast.Copy (p.p_dst, p.p_src) }

(* [Corpus.Patch] reads edits from JSON but has no writer, so requests
   spell out the two forms used here. *)
let edit_json p = function
  | `Add ->
      Util.Json.Obj
        [
          ("edit", Util.Json.String "add_stmt");
          ("cls", Util.Json.String p.p_cls);
          ("meth", Util.Json.String p.p_meth);
          ("arity", Util.Json.Int p.p_arity);
          ("stmt", Util.Json.Obj [ ("copy", Util.Json.List [ Util.Json.String p.p_dst; Util.Json.String p.p_src ]) ]);
        ]
  | `Remove ->
      Util.Json.Obj
        [
          ("edit", Util.Json.String "remove_stmt");
          ("cls", Util.Json.String p.p_cls);
          ("meth", Util.Json.String p.p_meth);
          ("arity", Util.Json.Int p.p_arity);
          ("index", Util.Json.Int p.p_index);
        ]

let patch_payload app p kind =
  payload (Server.Protocol.R_patch { app; edits = Util.Json.List [ edit_json p kind ] })

let apply_exn app edits =
  match Corpus.Patch.apply app edits with Ok a -> a | Error e -> failwith ("patch: " ^ e)
