(* Benchmark entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   prints a machine/check summary line, then, as the last line of
   standard output, one JSON object with [correct], [attempted],
   [failed] and [metrics].  With [--trace 0] the metrics are the
   end-to-end ones; with [--trace 1] the per-layer ones, from a run
   that interleaves traced and untraced passes and writes its spans to
   [.perfbench/spans-WORKLOAD-SEED.jsonl].  [--regen-expected] rewrites
   the expected-rows files from the original (never re-parsed) apps. *)

module J = Util.Json

let workloads =
  [ ("paper", Paper.run); ("modes", Modes.run); ("stream", Streaming.run); ("serve", Serve.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload paper|modes|stream|serve --seed N --seconds S --trace 0|1 [--smoke]\n\
    \       main.exe --regen-expected";
  exit 2

let machine ctx workload =
  J.Obj
    [
      ("nproc", J.Int ctx.Common.nproc);
      ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("ocamlrunparam", match Sys.getenv_opt "OCAMLRUNPARAM" with Some s -> J.String s | None -> J.Null);
      ("workload", J.String workload);
      ("seed", J.Int ctx.seed);
      ("seconds", J.Float ctx.seconds);
      ("trace", J.Bool ctx.trace);
      ("smoke", J.Bool ctx.smoke);
    ]

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let smoke = ref false and regen = ref false in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string_opt n;
        if !seed = None then usage ();
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string_opt s;
        if !seconds = None then usage ();
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := Some (t = "1");
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--regen-expected" :: rest ->
        regen := true;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !regen then begin
    Expected.regenerate ();
    exit 0
  end;
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when List.mem_assoc w workloads && seconds > 0. ->
      let ctx = { Common.seed; seconds; trace; smoke = !smoke; nproc = Stats.nproc () } in
      if trace then Gcev.start ();
      let outcome = (List.assoc w workloads) ctx in
      let correct = List.for_all snd outcome.checks && outcome.failed = 0 in
      print_endline
        (J.to_string
           (J.Obj
              [
                ("machine", machine ctx w);
                ("checks", J.Obj (List.map (fun (name, ok) -> (name, J.Bool ok)) outcome.checks));
                ("run", J.Obj (List.map (fun (name, v) -> (name, J.Float v)) !Common.info));
                ("pass_seconds", J.List (List.rev_map (fun (p : Common.pass) -> J.Float p.seconds) !Common.passes));
              ]));
      if trace then begin
        (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Span.write (Printf.sprintf ".perfbench/spans-%s-%d.jsonl" w seed)
      end;
      print_endline
        (J.to_string
           (J.Obj
              [
                ("correct", J.Bool correct);
                ("attempted", J.Int outcome.attempted);
                ("failed", J.Int outcome.failed);
                ( "metrics",
                  J.Obj
                    (List.map
                       (fun (m : Common.metric) ->
                         let v = if Float.is_finite m.m_value then m.m_value else 0. in
                         (m.m_name, J.Obj [ ("value", J.Float v); ("unit", J.String m.m_unit) ]))
                       outcome.metrics) );
              ]));
      if !smoke && not correct then exit 1
  | _ -> usage ()
