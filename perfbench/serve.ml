(* `serve`: Server.Daemon.handle called in-process, closed loop, with
   XBMC and ConnectBot resident.  Socket framing is left out so kernel
   scheduling stays out of the numbers.  Reads are seeded
   points-to-of-node, views-of-listener and activities-of-id requests
   (see [Inputs.request_mix] for the mix); every pass applies seeded
   patches and later reverts each, so the resident apps return to their
   base state and do not grow.  Each patch rebuilds the app's query
   handle, so the reads after it walk cold. *)

open Common
module J = Util.Json
module P = Server.Protocol

let config = Gator.Config.default

let app_names ctx = if ctx.smoke then [ "NotePad"; "OpenSudoku" ] else [ "XBMC"; "ConnectBot" ]

(* One pass applies and reverts [patches_per_pass] patches with
   [reads_per_pass] reads spread after them (a patch every ~1600
   requests).  After each patch and each revert, the patched variable
   and [sampled_after_patch] seeded locations its new flow reached are
   read and recorded for the output check. *)
let patches_per_pass = 5

let reads_per_pass ctx = if ctx.smoke then 800 else 16_000

let sampled_after_patch = 8

type resident = {
  r_name : string;
  r_base : Framework.App.t;
  r_cold : Gator.Analysis.t;  (** cold analysis of the base app *)
}

(* A recorded answer: the cold analysis of the app state it was read
   in, the node, and the daemon's value strings. *)
type sample = { s_cold : Gator.Analysis.t; s_node : Gator.Node.t; s_answer : string list }

(* ------------------------------------------------------------------ *)
(* The traced mirror: the daemon's dispatch rebuilt from the public
   layer calls, with a span around each. *)

type mentry = {
  mutable m_app : Framework.App.t;
  mutable m_solved : Gator.Solve.solved;
  mutable m_query : Gator.Query.t;
  mutable m_gen : int;
}

type mirror = {
  entries : (string, mentry) Hashtbl.t;
  retired : Gator.Query.stats list ref;  (** counters of handles a patch replaced *)
  warm : Gator.Solve.stats list ref;
}

let mirror_load apps =
  let entries = Hashtbl.create 4 in
  List.iter
    (fun (app : Framework.App.t) ->
      let _, solved = Gator.Incremental.analyze_solved ~config app in
      Hashtbl.replace entries app.name
        { m_app = app; m_solved = solved; m_query = Gator.Query.create ~hierarchy:app.hierarchy solved; m_gen = 0 })
    apps;
  { entries; retired = ref []; warm = ref [] }

let render pp v = Fmt.str "%a" pp v

let strings l = J.List (List.map (fun s -> J.String s) l)

let mirror_patch m e edits =
  match Corpus.Patch.of_json edits with
  | Error err -> P.error P.E_bad_params err
  | Ok patch -> (
      match Span.with_ "patch.apply" (fun () -> Corpus.Patch.apply e.m_app patch) with
      | Error err -> P.error P.E_bad_params err
      | Ok app ->
          let graph =
            Span.with_ "extract" (fun () ->
                Gator.Extract.run ~interner:(Gator.Solve.solved_interner e.m_solved) config app)
          in
          let new_shape, edits =
            Span.with_ "diff.edit_script" (fun () ->
                let new_shape = Gator.Solve.shape_of_graph graph in
                (new_shape, Gator.Diff.edit_script ~old_:(Gator.Solve.shape_of_solved e.m_solved) ~new_:new_shape))
          in
          let stats, solved =
            Span.with_ "solve.warm" (fun () ->
                Gator.Solve.run_incremental ~prev:e.m_solved ~edits ~new_shape config app graph)
          in
          m.warm := stats :: !(m.warm);
          m.retired := Gator.Query.stats e.m_query :: !(m.retired);
          e.m_query <- Span.with_ "query.create" (fun () -> Gator.Query.create ~hierarchy:app.hierarchy solved);
          e.m_app <- app;
          e.m_solved <- solved;
          e.m_gen <- e.m_gen + 1;
          P.ok ~generation:e.m_gen
            (J.Obj
               [
                 ("app", J.String app.name);
                 ("warm", J.Bool stats.warm_solve);
                 ("dirty", J.Int stats.dirty_comps);
                 ("reused", J.Int stats.reused_comps);
               ]))

let mirror_handle m ~op payload =
  Span.with_ ~op "request" (fun () ->
      let request =
        Span.with_ "protocol.decode" (fun () ->
            match J.of_string payload with
            | Error e -> Error (P.E_parse, e)
            | Ok j -> P.request_of_json j)
      in
      let find app k =
        match Hashtbl.find_opt m.entries app with
        | Some e -> k e
        | None -> P.error P.E_unknown_app app
      in
      let response =
        match request with
        | Error (code, msg) -> P.error code msg
        | Ok (P.R_points_to { app; node; budget }) ->
            find app (fun e ->
                match Span.with_ "query.points_to" (fun () -> Gator.Query.points_to ?budget e.m_query node) with
                | None -> P.error P.E_unknown_node (render Gator.Node.pp node)
                | Some values -> P.ok ~generation:e.m_gen (strings (Inputs.render_values values)))
        | Ok (P.R_views_of_listener { app; listener }) ->
            find app (fun e ->
                let views =
                  Span.with_ "query.views_of_listener" (fun () -> Gator.Query.views_of_listener e.m_query listener)
                in
                P.ok ~generation:e.m_gen (strings (List.map (render Gator.Node.pp_view) views)))
        | Ok (P.R_activities_of_id { app; id }) ->
            find app (fun e ->
                let acts = Span.with_ "query.activities_of_id" (fun () -> Gator.Query.activities_of_id e.m_query id) in
                P.ok ~generation:e.m_gen (strings acts))
        | Ok (P.R_patch { app; edits }) -> find app (fun e -> mirror_patch m e edits)
        | Ok _ -> P.error P.E_unknown_method "not mirrored"
      in
      Span.with_ "protocol.encode" (fun () -> J.to_string response))

(* ------------------------------------------------------------------ *)

let resident (app : Framework.App.t) =
  { r_name = app.name; r_base = app; r_cold = Gator.Analysis.analyze ~config app }

(* Patches per resident.  An edit is taken to be equally likely in any
   application method of the resident apps; each app's count is that
   expectation rounded by largest remainder, so every run makes the
   same split (XBMC 3, ConnectBot 2). *)
let patch_counts residents =
  let methods = Array.map (fun r -> float_of_int (Inputs.app_methods r.r_base)) residents in
  let total = Array.fold_left ( +. ) 0. methods in
  let exact = Array.map (fun m -> float_of_int patches_per_pass *. m /. total) methods in
  let counts = Array.map truncate exact in
  let left = patches_per_pass - Array.fold_left ( + ) 0 counts in
  let by_remainder =
    List.sort
      (fun i j -> Float.compare (exact.(j) -. Float.floor exact.(j)) (exact.(i) -. Float.floor exact.(i)))
      (List.init (Array.length residents) Fun.id)
  in
  List.iteri (fun k i -> if k < left then counts.(i) <- counts.(i) + 1) by_remainder;
  counts

(* One planned patch: a seeded copy whose flow reaches at least one
   location besides its target, the cold analysis of the patched app,
   and the reads recorded after it (the target first, then seeded
   locations whose answer the patch changed). *)
let plan_patch rng (res : resident) =
  let sites = Inputs.flow_sites res.r_cold in
  let locs = Inputs.locations res.r_base in
  let rec try_ k =
    if k = 0 then failwith ("serve: no patch site with downstream flow in " ^ res.r_name);
    let site = sites.(Util.Prng.int rng (Array.length sites)) in
    let cold = Gator.Analysis.analyze ~config (Inputs.apply_exn res.r_base [ Inputs.add_edit site ]) in
    let dst = Gator.Analysis.var ~cls:site.p_cls ~meth:site.p_meth ~arity:site.p_arity site.p_dst in
    let changed =
      Array.of_list
        (List.filter
           (fun l ->
             l <> dst && Gator.Analysis.values_at cold l <> Gator.Analysis.values_at res.r_cold l)
           locs)
    in
    if Array.length changed = 0 then try_ (k - 1)
    else
      let reads =
        Array.append [| dst |]
          (Array.init sampled_after_patch (fun _ -> changed.(Util.Prng.int rng (Array.length changed))))
      in
      let payloads =
        Array.map (fun node -> (node, Inputs.payload (P.R_points_to { app = res.r_name; node; budget = None }))) reads
      in
      (res, site, cold, payloads)
  in
  if Array.length sites = 0 then failwith ("serve: no patch site in " ^ res.r_name);
  try_ 50

type state = {
  daemon : Server.Daemon.t;
  residents : resident array;
  mix : Inputs.read array;
  mirror : mirror option;
}

let is_ok response = String.length response > 6 && String.sub response 0 6 = "{\"ok\":"

let answer response =
  match J.of_string response with
  | Ok j -> (
      match J.member "ok" j with
      | Some (J.List l) -> Some (List.filter_map (function J.String s -> Some s | _ -> None) l)
      | _ -> None)
  | Error _ -> None

let warmup_seed = 90210

let run ctx =
  let rng = Util.Prng.create ctx.seed in
  let build () =
    let daemon = Server.Daemon.create ~log:false ~socket:".perfbench/unused.sock" () in
    let apps = List.map (fun n -> Corpus.Apps.generate (Inputs.spec n)) (app_names ctx) in
    List.iter
      (fun (app : Framework.App.t) ->
        let r = Server.Daemon.handle daemon (Inputs.payload (P.R_load app.name)) in
        if not (is_ok r) then failwith ("serve: load failed: " ^ r))
      apps;
    let residents = Array.of_list (List.map resident apps) in
    let mix =
      Inputs.request_mix (Util.Prng.copy rng) (List.map (fun r -> r.r_cold) (Array.to_list residents)) (reads_per_pass ctx)
    in
    (* Warm-up: one sweep of a request cycle drawn from a fixed seed, so
       that set-up is the same work at every workload seed.  The first
       timed patch rebuilds the query handles, so no read of the timed
       cycle finds a memo this sweep filled. *)
    let cold = List.map (fun r -> r.r_cold) (Array.to_list residents) in
    Array.iter
      (fun (q : Inputs.read) -> ignore (Server.Daemon.handle daemon q.r_payload))
      (Inputs.request_mix (Util.Prng.create warmup_seed) cold (reads_per_pass ctx));
    let mirror = if ctx.trace then Some (mirror_load apps) else None in
    { daemon; residents; mix; mirror }
  in
  let st, setup_s = setup ~k:5 build in
  let handle_us = Hashtbl.create 4 and requests = Hashtbl.create 4 in
  let untraced = Stats.buf () and traced = Stats.buf () in
  let failed = ref 0 and attempted = ref 0 and cursor = ref 0 and op_id = ref 0 in
  let samples = ref [] in
  let g0 = Gc.quick_stat () in
  Gcev.reset ();
  (* One request through the daemon or the mirror, timed and counted. *)
  let request ~via ~meth payload =
    incr attempted;
    incr op_id;
    Hashtbl.replace requests meth (1 + Option.value (Hashtbl.find_opt requests meth) ~default:0);
    let response, dt =
      program (fun () ->
          match via with
          | `Daemon -> Server.Daemon.handle st.daemon payload
          | `Mirror (m, tracing) ->
              Span.enabled := tracing;
              let r = mirror_handle m ~op:!op_id payload in
              Span.enabled := false;
              r)
    in
    record_op (1000. *. dt);
    if meth = "patch" then record_write (1000. *. dt) else record_query (1e6 *. dt);
    (match via with
    | `Daemon ->
        let b =
          match Hashtbl.find_opt handle_us meth with
          | Some b -> b
          | None ->
              let b = Stats.buf () in
              Hashtbl.add handle_us meth b;
              b
        in
        Stats.push b (1e6 *. dt)
    | `Mirror (_, true) -> if meth <> "patch" then Stats.push traced (1e6 *. dt)
    | `Mirror (_, false) -> if meth <> "patch" then Stats.push untraced (1e6 *. dt));
    if not (is_ok response) then incr failed;
    response
  in
  (* The run's patch plan, fixed up front (outside set-up and the timed
     passes) so that every pass does the same work. *)
  let plan =
    Array.concat
      (Array.to_list
         (Array.mapi (fun i n -> Array.init n (fun _ -> plan_patch rng st.residents.(i))) (patch_counts st.residents)))
  in
  let reads_per_half = reads_per_pass ctx / (2 * patches_per_pass) in
  let sampled_reads ~via ~cold points =
    Array.iter
      (fun (node, payload) ->
        match answer (request ~via ~meth:"points-to-of-node" payload) with
        | Some a -> samples := { s_cold = cold; s_node = node; s_answer = a } :: !samples
        | None -> ())
      points
  in
  let mix_reads ~via count =
    for _ = 1 to count do
      let q = st.mix.(!cursor mod Array.length st.mix) in
      incr cursor;
      ignore (request ~via ~meth:q.r_method q.r_payload)
    done
  in
  (* Every patch must re-solve warm, never fall back to a full solve. *)
  let cold_patches = ref 0 in
  let patch ~via (res : resident) site kind =
    let r = request ~via ~meth:"patch" (Inputs.patch_payload res.r_name site kind) in
    Calib.measure ();
    match Option.bind (Result.to_option (J.of_string r)) (J.member "ok") with
    | Some ok when J.member "warm" ok = Some (J.Bool true) -> ()
    | _ -> incr cold_patches
  in
  let pass p =
    let via =
      match st.mirror with
      | Some m when p mod 3 = 1 -> `Mirror (m, false)
      | Some m when p mod 3 = 2 -> `Mirror (m, true)
      | _ -> `Daemon
    in
    cursor := 0;
    Array.iter
      (fun ((res : resident), (site : Inputs.patch), cold, sampled) ->
        patch ~via res site `Add;
        sampled_reads ~via ~cold sampled;
        mix_reads ~via (reads_per_half - Array.length sampled);
        patch ~via res site `Remove;
        sampled_reads ~via ~cold:res.r_cold sampled;
        mix_reads ~via (reads_per_half - Array.length sampled))
      plan;
    Gcev.poll ();
    patches_per_pass * (2 + (2 * reads_per_half))
  in
  let min_ops = if ctx.trace then 6 * reads_per_pass ctx else 2 * reads_per_pass ctx in
  let ops, _ = loop ~seconds:ctx.seconds ~min_ops pass in
  let rss_mb = Stats.peak_rss_mb () in
  let g1 = Gc.quick_stat () in
  (* Output check: every recorded answer equals the forward solution of
     a cold analysis of the same app state. *)
  let verified =
    List.for_all
      (fun s -> Inputs.render_values (Gator.Analysis.values_at s.s_cold s.s_node) = s.s_answer)
      !samples
  in
  let checks =
    [
      ("serve.answers_equal_cold_analysis", verified && !samples <> []);
      ("serve.every_patch_warm", !cold_patches = 0);
    ]
  in
  let metrics =
    if not ctx.trace then end_to_end ~setup_s ~ops ~rss_mb
    else begin
      let m = Option.get st.mirror in
      let aggs = Span.aggregate () in
      let us name = 1000. *. span_self_ms aggs name in
      let handle meth =
        match Hashtbl.find_opt handle_us meth with
        | Some b -> Stats.sum b /. float_of_int (Stats.length b)
        | None -> 0.
      in
      let qstats =
        Hashtbl.fold (fun _ e acc -> Gator.Query.stats e.m_query :: acc) m.entries !(m.retired)
      in
      let points = max 1 (List.fold_left (fun acc (q : Gator.Query.stats) -> acc + q.q_queries) 0 qstats) in
      let per_query f = float_of_int (List.fold_left (fun acc q -> acc + f q) 0 qstats) /. float_of_int points in
      let warm = !(m.warm) in
      let per_patch f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 warm) /. float_of_int (max 1 (List.length warm)) in
      per_layer
        ([
           ("extract.ms", span_self_ms aggs "extract");
           ("extract.minor_mw", span_mw aggs "extract");
           ("diff.edit_script_ms", span_self_ms aggs "diff.edit_script");
           ("solve.warm_ms", span_self_ms aggs "solve.warm");
           ("solve.dirty_comps", per_patch (fun s -> s.Gator.Solve.dirty_comps));
           ("solve.reused_comps", per_patch (fun s -> s.Gator.Solve.reused_comps));
           ("incremental.fallbacks", float_of_int (List.length (List.filter (fun s -> s.Gator.Solve.fallback <> None) warm)));
           ("query.create_ms", span_self_ms aggs "query.create");
           ("query.points_to_us", us "query.points_to");
           ("query.expanded", per_query (fun q -> q.Gator.Query.q_expanded));
           ("query.memo_hits", per_query (fun q -> q.Gator.Query.q_memo_hits));
           ("query.generator_hits", per_query (fun q -> q.Gator.Query.q_generator_hits));
           ("query.budget_fallbacks", per_query (fun q -> q.Gator.Query.q_budget_fallbacks));
           ("protocol.decode_us", us "protocol.decode");
           ("protocol.encode_us", us "protocol.encode");
           ("daemon.handle_us.points-to-of-node", handle "points-to-of-node");
           ("daemon.handle_us.views-of-listener", handle "views-of-listener");
           ("daemon.handle_us.activities-of-id", handle "activities-of-id");
           ("daemon.handle_us.patch", handle "patch");
           ("trace.op_ms", span_total_ms aggs "request");
           ("trace.remainder_ms", span_self_ms aggs "request");
           ("trace.overhead_pct", overhead_pct ~untraced ~traced);
           ("trace.spans", float_of_int (Span.count ()));
           ("gc.stw_pause_ms", Gcev.pause_ms () /. float_of_int ops);
         ]
        @ gc_layers ~ops g0 g1)
    end
  in
  (* The traffic as run: each method's share of the requests, and each
     app's number of patch pairs per pass. *)
  info :=
    !info
    @ Hashtbl.fold
        (fun meth n acc -> ("share." ^ meth, float_of_int n /. float_of_int !attempted) :: acc)
        requests []
    @ Array.to_list
        (Array.mapi (fun i n -> ("patches." ^ st.residents.(i).r_name, float_of_int n)) (patch_counts st.residents));
  { attempted = !attempted; failed = !failed; checks; metrics }
