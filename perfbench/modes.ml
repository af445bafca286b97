(* `modes`: large paper apps under the two non-default production
   modes.  `cs2` is context-keyed solving at inline depth 2 (template
   expansion and clone substitution); `sound` turns a seeded ~2% of the
   apps' R.id / R.layout reads into unknown-id markers (⊤ rules and the
   taint pass).  Those layers run nowhere else. *)

open Common

let cs2 = { Gator.Config.default with inline_depth = 2 }

let sound = Gator.Config.default

let reads_per_app = 64

(* Share of id reads made unknown in sound mode. *)
let top_share = 0.02

type input = {
  name : string;
  mode : string;  (** "cs2" or "sound" *)
  config : Gator.Config.t;
  app : Framework.App.t;
  markers : int;
  reads : Gator.Node.t array;
}

(* The eight largest apps after Astrid and XBMC.  Those two take
   0.3-0.65 s an op in these modes: with them a run holds too few ops
   for a p90 with ten samples beyond it drawn from each op's quiet
   third. *)
let app_names ctx =
  if ctx.smoke then [ "NotePad"; "OpenSudoku" ]
  else [ "FBReader"; "K9"; "KeePassDroid"; "MyTracks"; "SipDroid"; "ConnectBot"; "Beem"; "VLC" ]

let analyze ~op (inp : input) =
  let suffix = "." ^ inp.mode in
  Span.with_ ~op "op" (fun () ->
      let t0 = Stats.now () in
      let graph = Span.with_ ("extract" ^ suffix) (fun () -> Gator.Extract.run inp.config inp.app) in
      let stats = Span.with_ ("solve" ^ suffix) (fun () -> Gator.Solve.run inp.config inp.app graph) in
      let write = Stats.now () -. t0 in
      let r =
        Gator.Analysis.make ~app:inp.app ~config:inp.config ~graph ~stats ~solve_seconds:write
      in
      let t1, t2 = Span.with_ "metrics" (fun () -> (Gator.Metrics.table1 r, Gator.Metrics.table2 r)) in
      let pollution = Span.with_ "analysis.pollution" (fun () -> Gator.Analysis.pollution r) in
      (r, t1, t2, pollution, write))

(* The marker subset is drawn from a fixed seed so that every run
   analyzes the same programs; the workload seed orders the ops. *)
let marker_seed = 20140215

let inputs_of ctx =
  let rng = Util.Prng.create ctx.seed in
  List.concat_map
    (fun name ->
      let app = Corpus.Apps.generate (Inputs.spec name) in
      let markers = max 1 (int_of_float (Float.round (top_share *. float_of_int (Inputs.id_reads app)))) in
      let top = Inputs.inject_top (Util.Prng.create (marker_seed + Hashtbl.hash name)) ~count:markers app in
      List.map
        (fun inp ->
          let r, _, _, _, _ = analyze ~op:(-1) inp in
          { inp with reads = Inputs.sample_nonempty rng r (Inputs.locations inp.app) reads_per_app })
        [
          { name; mode = "cs2"; config = cs2; app; markers = 0; reads = [||] };
          { name; mode = "sound"; config = sound; app = top; markers; reads = [||] };
        ])
    (app_names ctx)

let expected_name ctx = if ctx.smoke then "modes-smoke" else "modes"

let row_json (inp : input) (r : Gator.Analysis.t) t1 t2 (polluted, nonempty) =
  Util.Json.Obj
    [
      ("mode", Util.Json.String inp.mode);
      ("markers", Util.Json.Int inp.markers);
      ("row", Rows.table_row t1 t2);
      ("polluted", Util.Json.Int polluted);
      ("nonempty", Util.Json.Int nonempty);
      ("counters", Rows.counters r.stats);
    ]

let expected_rows ctx =
  Util.Json.Obj
    (List.map
       (fun inp ->
         let r, t1, t2, pollution, _ = analyze ~op:(-1) inp in
         (inp.name ^ "." ^ inp.mode, row_json inp r t1 t2 pollution))
       (inputs_of ctx))

let run ctx =
  let inputs, setup_s = setup ~k:3 (fun () -> Array.of_list (inputs_of ctx)) in
  let n = Array.length inputs in
  let rng = Util.Prng.create (ctx.seed lxor 0x5eed) in
  let untraced = Stats.buf () and traced = Stats.buf () in
  let first = Hashtbl.create 16 and repeat_ok = ref true in
  let failed = ref 0 and attempted = ref 0 and op_id = ref 0 in
  let traced_pass = ref [] in
  let by_kind = Hashtbl.create 8 in
  let g0 = Gc.quick_stat () in
  Gcev.reset ();
  let pass p =
    let tracing = ctx.trace && p mod 2 = 1 in
    Span.enabled := tracing;
    let results = ref [] in
    Array.iter
      (fun i ->
        let inp = inputs.(i) in
        incr attempted;
        incr op_id;
        match program (fun () -> analyze ~op:!op_id inp) with
        | exception _ -> incr failed
        | (r, t1, t2, pollution, write), dt ->
            let dt = 1000. *. dt in
            let key = inp.name ^ "." ^ inp.mode in
            record_op ~key:(key, 0) dt;
            Stats.push (if tracing then traced else untraced) dt;
            record_write ~key:(key, 0) (1000. *. write);
            (match Hashtbl.find_opt by_kind key with
            | Some b -> Stats.push b dt
            | None ->
                let b = Stats.buf () in
                Stats.push b dt;
                Hashtbl.add by_kind key b);
            Array.iteri
              (fun slot node ->
                let _, dq = program (fun () -> Gator.Analysis.values_at r node) in
                record_query ~key:(key, slot) (1e6 *. dq))
              inp.reads;
            (* bookkeeping, outside the program's time *)
            let row = row_json inp r t1 t2 pollution in
            results := (inp, r.stats, pollution) :: !results;
            (match Hashtbl.find_opt first key with
            | None -> Hashtbl.add first key row
            | Some row' -> if not (Util.Json.equal row row') then repeat_ok := false);
            Calib.measure ();
            Gcev.poll ())
      (Inputs.order rng n);
    Span.enabled := false;
    if tracing && !traced_pass = [] then traced_pass := !results;
    n
  in
  let min_ops = if ctx.trace then 4 * n else max 100 (Stats.min_samples 0.99 / reads_per_app) in
  let ops, passes = loop ~seconds:ctx.seconds ~min_ops pass in
  let rss_mb = Stats.peak_rss_mb () in
  let g1 = Gc.quick_stat () in
  Hashtbl.iter
    (fun k b -> Printf.eprintf "modes: %-16s p50 %8.2f ms over %d ops\n%!" k (Stats.median b) (Stats.length b))
    by_kind;
  let rows =
    Util.Json.Obj
      (List.map
         (fun (inp : input) -> (inp.name ^ "." ^ inp.mode, Hashtbl.find first (inp.name ^ "." ^ inp.mode)))
         (Array.to_list inputs))
  in
  let sound_polluted =
    Hashtbl.fold
      (fun _ row ok ->
        ok
        &&
        match Util.Json.(member "mode" row, member "polluted" row, member "nonempty" row) with
        | Some (Util.Json.String "sound"), Some (Util.Json.Int p), Some (Util.Json.Int ne) -> p > 0 && p <= ne
        | Some (Util.Json.String "cs2"), Some (Util.Json.Int p), _ -> p = 0
        | _ -> false)
      first true
  in
  let checks =
    [
      ("modes.rows_equal_expected", Rows.matches_expected (expected_name ctx) rows);
      ("modes.pollution_bounds", sound_polluted);
      ("modes.counts_repeat_across_passes", !repeat_ok && passes >= 2);
    ]
  in
  let metrics =
    if not ctx.trace then end_to_end ~setup_s ~ops ~rss_mb
    else begin
      let aggs = Span.aggregate () in
      let sum mode f =
        float_of_int
          (List.fold_left
             (fun acc ((inp : input), s, _) -> if inp.mode = mode then acc + f s else acc)
             0 !traced_pass)
      in
      let polluted, nonempty =
        List.fold_left
          (fun (p, ne) ((inp : input), _, (p', ne')) ->
            if inp.mode = "sound" then (p + p', ne + ne') else (p, ne))
          (0, 0) !traced_pass
      in
      let per_mode mode =
        let sfx = "." ^ mode in
        [
          ("extract.ms" ^ sfx, span_self_ms aggs ("extract" ^ sfx));
          ("extract.minor_mw" ^ sfx, span_mw aggs ("extract" ^ sfx));
          ("solve.ms" ^ sfx, span_self_ms aggs ("solve" ^ sfx));
          ("solve.minor_mw" ^ sfx, span_mw aggs ("solve" ^ sfx));
          ("solve.op_applications" ^ sfx, sum mode (fun s -> s.Gator.Solve.op_applications));
          ("solve.propagations" ^ sfx, sum mode (fun s -> s.Gator.Solve.propagations));
          ("solve.union_calls" ^ sfx, sum mode (fun s -> s.Gator.Solve.union_calls));
          ("solve.bitset_words" ^ sfx, sum mode (fun s -> s.Gator.Solve.bitset_words));
        ]
      in
      per_layer
        (per_mode "cs2" @ per_mode "sound"
        @ [
            ("solve.ctx_keys", sum "cs2" (fun s -> s.Gator.Solve.ctx_keys));
            ("analysis.polluted", float_of_int polluted /. float_of_int (max 1 nonempty));
            ("analysis.nonempty", float_of_int nonempty);
            ("analysis.pollution_ms", span_self_ms aggs "analysis.pollution");
            ("metrics.ms", span_self_ms aggs "metrics");
            ("trace.op_ms", span_total_ms aggs "op");
            ("trace.remainder_ms", span_self_ms aggs "op");
            ("trace.overhead_pct", overhead_pct ~untraced ~traced);
            ("trace.spans", float_of_int (Span.count ()));
            ("gc.stw_pause_ms", Gcev.pause_ms () /. float_of_int ops);
          ]
        @ gc_layers ~ops g0 g1)
    end
  in
  { attempted = !attempted; failed = !failed; checks; metrics }
