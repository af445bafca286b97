(* The solution store's reading rules, as properties:
   - a solved graph lists its unsolved locations, in the same order,
     then the locations only the solve reached, by ascending node id;
   - [Analysis.pollution], which counts on the store's rows without
     decoding, equals a decode-and-count over [Graph.locations];
   - every taint lies inside its solution ([taints_of n ⊆ set_of n]).
   Inputs: the sound-mode apps of the benchmark's [modes] workload
   (eight large corpus apps, ~2% of their id reads turned into ⊤
   markers the way it draws them) and random reflective apps. *)
open Gator

(* Each run extracts, solves in place, and analyzes end to end. *)
type run = {
  extract : Framework.App.t -> Graph.t;
  solve : Framework.App.t -> Graph.t -> unit;
  analyze : Framework.App.t -> Analysis.t;
}

let engine config =
  {
    extract = Extract.run config;
    solve = (fun app g -> ignore (Solve.run config app g));
    analyze = Analysis.analyze ~config;
  }

let configs =
  [
    ("default", engine Config.default);
    ("cs2", engine { Config.default with inline_depth = 2 });
    ( "reference",
      {
        extract = Extract.run_inlined Config.default;
        solve = (fun app g -> ignore (Rules.run Config.default app g));
        analyze = Analysis.reference ~config:Config.default;
      } );
  ]

let node_id graph node =
  match Intern.find_node (Graph.interner graph) node with
  | Some id -> id
  | None -> Alcotest.failf "location %a is not interned" Node.pp node

let check_locations name run app =
  let graph = run.extract app in
  let unsolved = Graph.locations graph in
  run.solve app graph;
  let solved = Graph.locations graph in
  let rec split prefix rest =
    match (prefix, rest) with
    | [], tail -> tail
    | p :: prefix, r :: rest when Node.equal p r -> split prefix rest
    | _ -> Alcotest.failf "%s: solved locations do not start with the unsolved ones" name
  in
  let tail = split unsolved solved in
  let ids = List.map (node_id graph) tail in
  if ids <> List.sort_uniq Int.compare ids then
    Alcotest.failf "%s: solve-only locations are not in ascending id order" name;
  let seen = Hashtbl.create 1024 in
  List.iter (fun n -> Hashtbl.replace seen (node_id graph n) ()) solved;
  let sol = Graph.solution graph in
  for nid = 0 to Intern.node_count (Graph.interner graph) - 1 do
    let non_empty =
      match Graph.points_to_row sol nid with Some b -> not (Util.Bitset.is_empty b) | None -> false
    in
    if non_empty && not (Hashtbl.mem seen nid) then
      Alcotest.failf "%s: solved node %d is not a location" name nid
  done;
  List.iter
    (fun n ->
      if Graph.VS.is_empty (Graph.set_of graph n) then
        Alcotest.failf "%s: solve-only location %a has an empty set" name Node.pp n)
    tail

let check_pollution name (r : Analysis.t) =
  let g = r.Analysis.graph in
  let polluted = ref 0 and nonempty = ref 0 in
  List.iter
    (fun node ->
      let set = Graph.set_of g node and taints = Graph.taints_of g node in
      if not (Graph.VS.subset taints set) then
        Alcotest.failf "%s: taints of %a escape its set" name Node.pp node;
      if not (Graph.VS.is_empty set) then begin
        incr nonempty;
        if not (Graph.VS.is_empty taints) then incr polluted
      end)
    (Graph.locations g);
  Alcotest.(check (pair int int))
    (name ^ ": pollution counted on rows = decoded count")
    (!polluted, !nonempty) (Analysis.pollution r)

(* The [modes] workload's sound inputs: [inject_top] turns [count] of
   the app's [R.id.f] / [R.layout.f] reads, drawn by [rng], into their
   [R.id.?] / [R.layout.?] forms. *)
let is_id_read = function Jir.Ast.Read_view_id _ | Jir.Ast.Read_layout_id _ -> true | _ -> false

let map_reads f (app : Framework.App.t) =
  let k = ref 0 in
  let program =
    {
      Jir.Ast.p_classes =
        List.map
          (fun (c : Jir.Ast.cls) ->
            {
              c with
              c_methods =
                List.map
                  (fun (m : Jir.Ast.meth) ->
                    {
                      m with
                      m_body =
                        List.map
                          (fun st ->
                            if is_id_read st then begin
                              let st = f !k st in
                              incr k;
                              st
                            end
                            else st)
                          m.m_body;
                    })
                  c.c_methods;
            })
          app.program.p_classes;
    }
  in
  (program, !k)

let inject_top rng ~count (app : Framework.App.t) =
  let _, total = map_reads (fun _ st -> st) app in
  let chosen = Hashtbl.create 16 in
  List.iteri
    (fun i k -> if i < count then Hashtbl.replace chosen k ())
    (Util.Prng.shuffle rng (List.init total Fun.id));
  let program, _ =
    map_reads
      (fun k st ->
        match st with
        | Jir.Ast.Read_view_id (x, _) when Hashtbl.mem chosen k -> Jir.Ast.Read_view_top x
        | Jir.Ast.Read_layout_id (x, _) when Hashtbl.mem chosen k -> Jir.Ast.Read_layout_top x
        | st -> st)
      app
  in
  (Framework.App.make ~name:app.name program app.package, total)

let modes_sound_apps () =
  List.map
    (fun name ->
      let app =
        match Corpus.Apps.by_name name with
        | Some spec -> Corpus.Apps.generate spec
        | None -> Alcotest.failf "no corpus app %s" name
      in
      let _, reads = map_reads (fun _ st -> st) app in
      let count = max 1 (int_of_float (Float.round (0.02 *. float_of_int reads))) in
      fst (inject_top (Util.Prng.create (20140215 + Hashtbl.hash name)) ~count app))
    [ "FBReader"; "K9"; "KeePassDroid"; "MyTracks"; "SipDroid"; "ConnectBot"; "Beem"; "VLC" ]

let test_modes_pollution () =
  List.iter
    (fun (app : Framework.App.t) ->
      let r = Analysis.analyze app in
      if not (Graph.has_top r.Analysis.graph) then Alcotest.failf "%s: no ⊤ marker injected" app.name;
      check_pollution app.name r;
      if fst (Analysis.pollution r) = 0 then Alcotest.failf "%s: nothing polluted" app.name)
    (modes_sound_apps ())

let test_corpus_locations () =
  List.iter
    (fun (label, app) ->
      List.iter (fun (cfg, run) -> check_locations (label ^ "@" ^ cfg) run app) configs)
    [
      ("Figure1", Corpus.Connectbot.app ());
      ("XBMC", Corpus.Apps.generate (Option.get (Corpus.Apps.by_name "XBMC")));
      ("ReflHeavy", Corpus.Gen.reflective_app ~name:"ReflHeavy" ~layouts:3 ~seed:2014 ());
    ]

let qcheck_random_apps =
  QCheck.Test.make ~name:"random apps: locations, pollution and taint rules" ~count:12
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Util.Prng.create seed in
      let apps =
        [
          ("reflective", Corpus.Gen.random_reflective_app rng);
          ("cyclic", Corpus.Gen.random_cyclic_app rng);
        ]
      in
      List.iter
        (fun (kind, app) ->
          List.iter
            (fun (cfg, run) ->
              let name = Printf.sprintf "%s %d@%s" kind seed cfg in
              check_locations name run app;
              check_pollution name (run.analyze app))
            configs)
        apps;
      true)

let suite =
  [
    Alcotest.test_case "solved locations extend the unsolved ones" `Quick test_corpus_locations;
    Alcotest.test_case "pollution on the modes sound inputs" `Quick test_modes_pollution;
    QCheck_alcotest.to_alcotest qcheck_random_apps;
  ]
