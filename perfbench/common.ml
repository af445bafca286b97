(* What every workload shares: the run context, the outcome record,
   set-up timing, passes, and the end-to-end / per-layer metrics. *)

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (** tiny inputs and op minimums, for the benchmark's own smoke test *)
  nproc : int;
}

type metric = { m_name : string; m_value : float; m_unit : string }

type outcome = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** output checks, all run outside the timed region *)
  metrics : metric list;
}

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* Run [build] [k] times from scratch and keep the last state; set-up
   time is the median, so one slow repetition does not move it. *)
let setup_times = ref []

let setup ~k build =
  let times = setup_times and last = ref None in
  for _ = 1 to k do
    Gc.compact ();
    let t0 = Stats.now () in
    let v = build () in
    times := (Stats.now () -. t0) :: !times;
    last := Some v
  done;
  (Option.get !last, Stats.median_of !times)

(* ------------------------------------------------------------------ *)
(* Passes *)

(* A pass is one full cycle of a workload's ops; every pass of a run
   does the same work.  Its [seconds] and [words] cover only the calls
   into the program ([program] below), never the benchmark's own
   bookkeeping around them: row building, repeat checks, digests,
   response decoding.  Latency samples are kept per pass. *)
type pass = {
  mutable seconds : float;  (** time inside the program *)
  mutable words : float;  (** minor words allocated inside the program *)
  mutable wall : float;  (** the whole pass, bookkeeping included *)
  mutable ops : int;
  op_ms : Stats.buf;  (** per-op latency *)
  query_us : Stats.buf;  (** per-read latency *)
  write_ms : Stats.buf;  (** per-write latency *)
}

let new_pass () =
  {
    seconds = 0.;
    words = 0.;
    wall = 0.;
    ops = 0;
    op_ms = Stats.buf ();
    query_us = Stats.buf ();
    write_ms = Stats.buf ();
  }

let passes : pass list ref = ref []

let current = ref (new_pass ())

(* A call into the program: [f]'s wall time and minor words are charged
   to the current pass.  Returns [f]'s result and its seconds. *)
let program f =
  let w0 = Stats.minor_words () and t0 = Stats.now () in
  let v = f () in
  let t1 = Stats.now () and w1 = Stats.minor_words () in
  let p = !current in
  p.seconds <- p.seconds +. (t1 -. t0);
  p.words <- p.words +. (w1 -. w0);
  (v, t1 -. t0)

(* Samples by key.  In [paper] and [modes] every pass repeats the same
   ops and reads in a new order; a key names one of them (an app, or
   one read slot of an app), so its samples across passes did the same
   work. *)
type key = string * int

type keyed = {
  k_ops : (key, Stats.buf) Hashtbl.t;
  k_queries : (key, Stats.buf) Hashtbl.t;
  k_writes : (key, Stats.buf) Hashtbl.t;
}

let keyed = { k_ops = Hashtbl.create 64; k_queries = Hashtbl.create 4096; k_writes = Hashtbl.create 64 }

let push_keyed tbl key x =
  match Hashtbl.find_opt tbl key with
  | Some b -> Stats.push b x
  | None ->
      let b = Stats.buf () in
      Stats.push b x;
      Hashtbl.add tbl key b

let record_op ?key ms =
  Stats.push !current.op_ms ms;
  Option.iter (fun k -> push_keyed keyed.k_ops k ms) key

let record_query ?key us =
  Stats.push !current.query_us us;
  Option.iter (fun k -> push_keyed keyed.k_queries k us) key

let record_write ?key ms =
  Stats.push !current.write_ms ms;
  Option.iter (fun k -> push_keyed keyed.k_writes k ms) key

(* Keep running [pass] until [seconds] have elapsed and [min_ops] ops
   have completed; [pass] returns the ops it completed. *)
let loop ~seconds ~min_ops pass =
  let deadline = Stats.now () +. seconds in
  let ops = ref 0 and n = ref 0 in
  while Stats.now () < deadline || !ops < min_ops do
    current := new_pass ();
    let t0 = Stats.now () in
    let k = pass !n in
    !current.wall <- Stats.now () -. t0;
    !current.ops <- k;
    passes := !current :: !passes;
    ops := !ops + k;
    incr n
  done;
  (!ops, !n)

(* The quiet passes.  The host drifts: for several seconds at a time
   every wall-clock figure moves up together by as much as 1.5x, and
   a 10-second run can fall entirely into such a spell.  Noise of this
   kind only ever slows a pass down, so the timing metrics are read
   from the fastest third of a run's passes (never fewer than the
   percentiles' sample counts need), all of which did the same work. *)
let quiet () =
  let sorted = List.sort (fun a b -> Float.compare a.seconds b.seconds) !passes in
  let total = List.length sorted in
  let enough kept =
    let count f = List.fold_left (fun acc p -> acc + Stats.length (f p)) 0 kept in
    List.length kept >= (total + 2) / 3
    && count (fun p -> p.op_ms) >= Stats.min_samples 0.9
    && count (fun p -> p.query_us) >= Stats.min_samples 0.99
    && count (fun p -> p.write_ms) >= 1
  in
  let rec take k = if k >= total then sorted else
      let kept = List.filteri (fun i _ -> i < k) sorted in
      if enough kept then kept else take (k + 1)
  in
  take 1

let concat f kept =
  let b = Stats.buf () in
  List.iter (fun p -> let x = f p in for i = 0 to Stats.length x - 1 do Stats.push b x.Stats.data.(i) done) kept;
  b

(* The quiet samples by key.  A slow spell can cover part of a pass, so
   where ops are keyed each key's fastest third is kept on its own,
   rather than whole passes.  The share grows past a third only when
   the pooled samples are too few for [need]; the second result is the
   share kept. *)
let quiet_keyed tbl ~need =
  let series = Hashtbl.fold (fun _ b acc -> Stats.sorted b :: acc) tbl [] in
  let longest = List.fold_left (fun acc a -> max acc (Array.length a)) 0 series in
  let pool m =
    let b = Stats.buf () in
    List.iter (fun a -> Array.iteri (fun i x -> if i < m then Stats.push b x) a) series;
    b
  in
  let rec grow m =
    let b = pool m in
    if Stats.length b >= need || m >= longest then (b, float_of_int m /. float_of_int longest) else grow (m + 1)
  in
  grow (max 1 (longest / 3))

(* Throughput of a pass in which every keyed op runs at its quiet
   latency: the op keys over the sum of each key's quiet mean. *)
let keyed_ops_per_s () =
  let quiet_ms = Hashtbl.fold (fun _ b acc -> acc +. Stats.quiet_mean b) keyed.k_ops 0. in
  1000. *. float_of_int (Hashtbl.length keyed.k_ops) /. quiet_ms

(* Summary-line facts about the run; not graded. *)
let info = ref []

(* The end-to-end metrics, in BENCHMARK.json's order.  Keyed workloads
   read their timings from each key's quiet samples, the others from
   the quiet passes; every timing is then taken to the reference host
   speed (see [Calib]).  The summary line keeps the raw figures. *)
let end_to_end ~setup_s ~ops ~rss_mb =
  let total f = List.fold_left (fun acc p -> acc +. f p) 0. !passes in
  let all_s = total (fun p -> p.seconds) in
  let ops_per_s, op_ms, query_us, write_ms, quiet_info =
    if Hashtbl.length keyed.k_ops = 0 then begin
      let kept = quiet () in
      let kept_ops = List.fold_left (fun acc p -> acc + p.ops) 0 kept in
      let kept_s = List.fold_left (fun acc p -> acc +. p.seconds) 0. kept in
      ( float_of_int kept_ops /. kept_s,
        concat (fun p -> p.op_ms) kept,
        concat (fun p -> p.query_us) kept,
        concat (fun p -> p.write_ms) kept,
        [ ("quiet_passes", float_of_int (List.length kept)) ] )
    end
    else begin
      let op_ms, op_share = quiet_keyed keyed.k_ops ~need:(Stats.min_samples 0.9) in
      let query_us, query_share = quiet_keyed keyed.k_queries ~need:(Stats.min_samples 0.99) in
      let write_ms, _ = quiet_keyed keyed.k_writes ~need:1 in
      ( keyed_ops_per_s (),
        op_ms,
        query_us,
        write_ms,
        [
          ("op_keys", float_of_int (Hashtbl.length keyed.k_ops));
          ("query_keys", float_of_int (Hashtbl.length keyed.k_queries));
          ("op_quiet_share", op_share);
          ("query_quiet_share", query_share);
        ] )
    end
  in
  let slowdown = Calib.slowdown () and raw = ref [] in
  let timing name u v =
    raw := ("raw." ^ name, v) :: !raw;
    metric name u (if u = "1/s" then v *. slowdown else v /. slowdown)
  in
  let metrics =
    [
      timing "setup_s" "s" setup_s;
      timing "ops_per_s" "1/s" ops_per_s;
      timing "op_ms_p50" "ms" (Stats.percentile op_ms 0.5);
      timing "op_ms_p90" "ms" (Stats.percentile op_ms 0.9);
      metric "alloc_mw_per_op" "Mw" (total (fun p -> p.words) /. float_of_int ops /. 1e6);
      metric "peak_rss_mb" "MB" rss_mb;
      timing "query_us_p50" "us" (Stats.percentile query_us 0.5);
      timing "query_us_p99" "us" (Stats.percentile query_us 0.99);
      timing "patch_ms_p50" "ms" (Stats.percentile write_ms 0.5);
    ]
  in
  info :=
    [
      ("passes", float_of_int (List.length !passes));
      ("all_passes_ops_per_s", float_of_int ops /. all_s);
      ("program_share_of_wall", all_s /. total (fun p -> p.wall));
      ("op_samples", float_of_int (Stats.length op_ms));
      ("query_samples", float_of_int (Stats.length query_us));
      ("write_samples", float_of_int (Stats.length write_ms));
      ("calib_samples", float_of_int (Stats.length Calib.samples));
      ("host_slowdown", slowdown);
    ]
    @ quiet_info @ List.sort compare !raw
    @ List.mapi (fun i t -> (Printf.sprintf "setup.%d" i, t)) (List.rev !setup_times);
  metrics

(* ------------------------------------------------------------------ *)
(* Per-layer metrics *)

(* Every per-layer metric, with its unit, in BENCHMARK.json's order.  A
   traced run reports all of them; a layer the workload does not
   exercise reads 0. *)
let layer_units =
  let per_mode base = [ base; base ^ ".cs2"; base ^ ".sound" ] in
  List.concat
    [
      [ ("app.of_source_ms", "ms"); ("app.source_mb_per_s", "MB/s") ];
      List.map (fun n -> (n, "ms")) (per_mode "extract.ms");
      List.map (fun n -> (n, "Mw")) (per_mode "extract.minor_mw");
      List.map (fun n -> (n, "ms")) (per_mode "solve.ms");
      List.map (fun n -> (n, "Mw")) (per_mode "solve.minor_mw");
      List.concat_map
        (fun c -> List.map (fun n -> (n, "count")) (per_mode ("solve." ^ c)))
        [ "op_applications"; "propagations"; "union_calls"; "bitset_words" ];
      [
        ("solve.ctx_keys", "count");
        ("analysis.polluted", "ratio");
        ("analysis.nonempty", "count");
        ("analysis.pollution_ms", "ms");
        ("diff.edit_script_ms", "ms");
        ("solve.warm_ms", "ms");
        ("solve.dirty_comps", "count");
        ("solve.reused_comps", "count");
        ("incremental.fallbacks", "count");
        ("query.create_ms", "ms");
        ("query.points_to_us", "us");
        ("query.expanded", "count");
        ("query.memo_hits", "count");
        ("query.generator_hits", "count");
        ("query.budget_fallbacks", "count");
        ("protocol.decode_us", "us");
        ("protocol.encode_us", "us");
        ("daemon.handle_us.points-to-of-node", "us");
        ("daemon.handle_us.views-of-listener", "us");
        ("daemon.handle_us.activities-of-id", "us");
        ("daemon.handle_us.patch", "us");
        ("gen.ms", "ms");
        ("pool.queue_wait_ms", "ms");
        ("pool.task_ms", "ms");
        ("pool.steals", "count");
        ("pool.max_queued", "count");
        ("pool.scaling", "ratio");
        ("pool.scaling_base_apps_per_s", "1/s");
        ("gc.minor_collections", "count");
        ("gc.major_collections", "count");
        ("gc.major_mw", "Mw");
        ("gc.stw_pause_ms", "ms");
        ("metrics.ms", "ms");
        ("trace.op_ms", "ms");
        ("trace.remainder_ms", "ms");
        ("trace.overhead_pct", "%");
        ("trace.spans", "count");
      ];
    ]

(* Fill in the full per-layer list from what the workload measured. *)
let per_layer measured =
  List.map
    (fun (name, u) ->
      metric name u (match List.assoc_opt name measured with Some v -> v | None -> 0.))
    layer_units

(* Mean self time (ms) and mean minor words (millions) per span of the
   given name, or 0 when the workload never opened one.  Means, not
   medians, so that a parent's children and its remainder add up. *)
let span_stat f (aggs : (string, Span.agg) Hashtbl.t) name =
  match Hashtbl.find_opt aggs name with
  | Some a when Stats.length (f a) > 0 -> Stats.sum (f a) /. float_of_int (Stats.length (f a))
  | _ -> 0.

let span_self_ms aggs name = span_stat (fun a -> a.Span.self_ms) aggs name

let span_total_ms aggs name = span_stat (fun a -> a.Span.total_ms) aggs name

let span_mw aggs name = span_stat (fun a -> a.Span.words) aggs name /. 1e6

let span_self_sum (aggs : (string, Span.agg) Hashtbl.t) name =
  match Hashtbl.find_opt aggs name with Some a -> Stats.sum a.Span.self_ms | None -> 0.

(* GC counters per op over a window of [ops] ops. *)
let gc_layers ~ops (g0 : Gc.stat) (g1 : Gc.stat) =
  let per x = x /. float_of_int (max 1 ops) in
  [
    ("gc.minor_collections", per (float_of_int (g1.minor_collections - g0.minor_collections)));
    ("gc.major_collections", per (float_of_int (g1.major_collections - g0.major_collections)));
    ("gc.major_mw", per ((g1.major_words -. g0.major_words) /. 1e6));
  ]

(* Tracing overhead: traced over untraced median op latency. *)
let overhead_pct ~untraced ~traced =
  100. *. ((Stats.median traced /. Stats.median untraced) -. 1.)
