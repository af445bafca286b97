(* Context-keyed interned solving: the three-way differential.

   At inline depth > 0 extraction walks clone bodies in id space
   instead of re-extracting them as [$n]-suffixed program text, which
   is the rule-table reference's route ([Analysis.reference]).  Its
   correctness oracle is exact equivalence with that inlining path, on
   either interner tier:
   for every app and every depth,
     reference-inlined  =  context-keyed (shared tier)
                        =  context-keyed (private tier)
   over points-to sets, view relations, holder roots, transitions, and
   the op-level Diff.  The batteries cover the fixed corpus, random
   spec-driven apps, cycle-heavy apps, and the alias-heavy family
   built specifically to make context sensitivity change answers. *)
open Gator

let cs depth = { Config.default with inline_depth = depth }

(* The differential proper: all three runs at the given depth, all
   three pairs compared. *)
let three_way ?(depths = [ 1; 2 ]) name app =
  List.iter
    (fun depth ->
      let tag = Printf.sprintf "%s@cs%d" name depth in
      let rs = Analysis.reference ~config:(cs depth) app in
      let rk = Analysis.analyze ~config:(cs depth) app in
      let rp = Private_tier.analyze ~config:(cs depth) app in
      Same_solution.check (tag ^ " keyed vs reference-inlined") rk rs;
      Same_solution.check (tag ^ " private-tier keyed vs reference-inlined") rp rs;
      Same_solution.check (tag ^ " keyed vs private-tier keyed") rk rp;
      (* counter plumbing: both tiers mint the same contexts *)
      Alcotest.check Alcotest.int (tag ^ " tiers mint the same contexts") rk.stats.Solve.ctx_count
        rp.stats.Solve.ctx_count;
      Alcotest.check Alcotest.int (tag ^ " tiers mint the same ctx keys") rk.stats.Solve.ctx_keys
        rp.stats.Solve.ctx_keys;
      if rk.stats.Solve.ctx_count > 0 then
        Alcotest.check Alcotest.bool (tag ^ " ctx_keys >= ctx_count") true
          (rk.stats.Solve.ctx_keys >= rk.stats.Solve.ctx_count))
    depths

let test_connectbot () = three_way "ConnectBot" (Corpus.Connectbot.app ())

let test_corpus () =
  List.iter
    (fun spec -> three_way spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec))
    Corpus.Apps.specs

let test_random_apps () =
  let rng = Util.Prng.create 4102 in
  for i = 1 to 5 do
    let spec = Corpus.Gen.random_spec ~name:(Printf.sprintf "CtxRandom_%d" i) rng in
    three_way spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec)
  done

let test_cycle_heavy () =
  let rng = Util.Prng.create 977 in
  for i = 1 to 4 do
    three_way (Printf.sprintf "CtxCyclic_%d" i)
      (Corpus.Gen.random_cyclic_app ~name:(Printf.sprintf "CtxCyclic_%d" i) rng)
  done

let test_alias_heavy () =
  three_way "AliasFixed" (Corpus.Gen.alias_heavy_app ~groups:4 ~sites_per_group:5 ~seed:11 ());
  let rng = Util.Prng.create 5311 in
  for i = 1 to 4 do
    three_way (Printf.sprintf "CtxAlias_%d" i)
      (Corpus.Gen.random_alias_heavy_app ~name:(Printf.sprintf "CtxAlias_%d" i) rng)
  done

let qcheck_random_differential =
  QCheck.Test.make ~count:20 ~name:"qcheck: three-way differential on random apps"
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Util.Prng.create seed in
      let app =
        if seed mod 3 = 0 then Corpus.Gen.random_cyclic_app rng
        else if seed mod 3 = 1 then Corpus.Gen.random_alias_heavy_app rng
        else Corpus.Gen.generate (Corpus.Gen.random_spec rng)
      in
      three_way "qcheck" app;
      true)

(* The precision story the family exists for: context sensitivity
   shrinks the alias-heavy setId receiver sets from the whole group to
   one view per site — and the keyed engine reports the same shrink. *)
let test_alias_precision () =
  let sites = 5 in
  let app = Corpus.Gen.alias_heavy_app ~groups:4 ~sites_per_group:sites ~seed:3 () in
  let avg_recv (r : Analysis.t) =
    let ops = Analysis.ops_of_kind r (fun k -> k = Framework.Api.Set_id) in
    let sized =
      List.filter_map
        (fun op ->
          match List.length (Analysis.op_receiver_views r op) with 0 -> None | n -> Some n)
        ops
    in
    float_of_int (List.fold_left ( + ) 0 sized) /. float_of_int (max 1 (List.length sized))
  in
  let base = avg_recv (Analysis.analyze ~config:Config.default app) in
  let cs2 = avg_recv (Analysis.analyze ~config:(cs 2) app) in
  let cs2_inlined = avg_recv (Analysis.reference ~config:(cs 2) app) in
  Alcotest.check (Alcotest.float 1e-9) "keyed and inlined report the same averages" cs2_inlined cs2;
  Alcotest.check Alcotest.bool
    (Printf.sprintf "baseline merges the group (%.2f >= %d)" base sites)
    true
    (base >= float_of_int sites);
  Alcotest.check (Alcotest.float 1e-9) "cs-2 separates every site" 1.0 cs2

let suite =
  [
    Alcotest.test_case "ConnectBot three-way" `Quick test_connectbot;
    Alcotest.test_case "random apps three-way" `Quick test_random_apps;
    Alcotest.test_case "cycle-heavy three-way" `Quick test_cycle_heavy;
    Alcotest.test_case "alias-heavy three-way" `Quick test_alias_heavy;
    Alcotest.test_case "alias-heavy precision delta" `Quick test_alias_precision;
    Alcotest.test_case "full corpus three-way" `Slow test_corpus;
    QCheck_alcotest.to_alcotest qcheck_random_differential;
  ]
