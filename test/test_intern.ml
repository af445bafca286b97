(* The interned solver and its substrate.  Three layers of evidence:
   the bitset domain must agree operation-for-operation with a
   reference [Set.Make (Int)]; the hash-consing [Intern] pools must
   assign dense ids that round-trip; and the interned engine must
   produce the same solution as the rule-table reference
   ([Analysis.reference]) — on random
   apps, on the corpus, and under a worker-domain pool — down to
   byte-identical reports.  (The shared frozen tier has its own
   differential suite in [test_shared_intern.ml].) *)
open Gator

(* ------------------------------------------------------------------ *)
(* Bitset vs Set.Make (Int) *)

module IS = Set.Make (Int)

let test_bitset_random () =
  let rng = Util.Prng.create 97 in
  for _round = 1 to 40 do
    let b = Util.Bitset.create () in
    let r = ref IS.empty in
    for _step = 1 to 400 do
      (* span several words, including indexes right at word breaks *)
      let i =
        if Util.Prng.chance rng 0.2 then
          Util.Prng.int rng 4 * Sys.int_size + Util.Prng.int_in rng (-1) 1 + Sys.int_size
        else Util.Prng.int rng 300
      in
      match Util.Prng.int rng 3 with
      | 0 ->
          let added = Util.Bitset.add b i in
          Alcotest.check Alcotest.bool "add reports growth" (not (IS.mem i !r)) added;
          r := IS.add i !r
      | 1 ->
          Util.Bitset.remove b i;
          r := IS.remove i !r
      | _ -> Alcotest.check Alcotest.bool "mem" (IS.mem i !r) (Util.Bitset.mem b i)
    done;
    Alcotest.check (Alcotest.list Alcotest.int) "elements in order" (IS.elements !r)
      (Util.Bitset.elements b);
    Alcotest.check Alcotest.int "cardinal" (IS.cardinal !r) (Util.Bitset.cardinal b);
    Alcotest.check Alcotest.bool "is_empty" (IS.is_empty !r) (Util.Bitset.is_empty b);
    let copy = Util.Bitset.copy b in
    ignore (Util.Bitset.add copy 1023);
    Alcotest.check Alcotest.bool "copy is independent" false (Util.Bitset.mem b 1023);
    Util.Bitset.clear b;
    Alcotest.check Alcotest.bool "clear empties" true (Util.Bitset.is_empty b)
  done

let test_bitset_union_delta () =
  let rng = Util.Prng.create 3301 in
  for _round = 1 to 60 do
    let into = Util.Bitset.create () and src = Util.Bitset.create () in
    let ri = ref IS.empty and rs = ref IS.empty in
    for _step = 1 to 120 do
      let i = Util.Prng.int rng (4 * Sys.int_size) in
      if Util.Prng.bool rng then begin
        ignore (Util.Bitset.add into i);
        ri := IS.add i !ri
      end
      else begin
        ignore (Util.Bitset.add src i);
        rs := IS.add i !rs
      end
    done;
    let expected_fresh = IS.diff !rs !ri in
    let fresh = ref IS.empty in
    Util.Bitset.union_delta ~into src ~on_new:(fun i ->
        Alcotest.check Alcotest.bool "on_new visits each bit once" false (IS.mem i !fresh);
        fresh := IS.add i !fresh);
    Alcotest.check (Alcotest.list Alcotest.int) "on_new = src \\ into"
      (IS.elements expected_fresh) (IS.elements !fresh);
    Alcotest.check (Alcotest.list Alcotest.int) "into = union"
      (IS.elements (IS.union !ri !rs))
      (Util.Bitset.elements into);
    Alcotest.check (Alcotest.list Alcotest.int) "src untouched" (IS.elements !rs)
      (Util.Bitset.elements src);
    Alcotest.check Alcotest.bool "equal reflexive" true (Util.Bitset.equal into into);
    Alcotest.check Alcotest.bool "equal vs src"
      (IS.equal (IS.union !ri !rs) !rs)
      (Util.Bitset.equal into src)
  done

(* ------------------------------------------------------------------ *)
(* Interner: dense ids, stable on re-intern, structural round-trip *)

let test_interner_roundtrip () =
  let r = Analysis.analyze (Corpus.Connectbot.app ()) in
  let it = Intern.create () in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun node ->
      let nid = Intern.node it node in
      Alcotest.check Alcotest.bool "node id round-trips" true
        (Node.compare (Intern.node_of it nid) node = 0);
      Alcotest.check Alcotest.int "node re-intern is stable" nid (Intern.node it node);
      Graph.VS.iter
        (fun v ->
          let vid = Intern.value it v in
          Hashtbl.replace seen vid ();
          Alcotest.check Alcotest.bool "value round-trips" true
            (Node.compare_value (Intern.value_of it vid) v = 0);
          Alcotest.check Alcotest.int "value re-intern is stable" vid (Intern.value it v);
          match v with
          | Node.V_view w ->
              let wid = Intern.view_of_value_id it vid in
              Alcotest.check Alcotest.bool "view cross-map" true
                (Node.compare_view (Intern.view_of it wid) w = 0);
              Alcotest.check Alcotest.int "value<->view maps invert" vid
                (Intern.value_of_view_id it wid)
          | _ -> ())
        (Graph.set_of r.graph node))
    (Graph.locations r.graph);
  (* ids are dense: every id below the pool count was assigned *)
  Alcotest.check Alcotest.int "value ids are dense" (Intern.value_count it) (Hashtbl.length seen);
  for vid = 0 to Intern.value_count it - 1 do
    Alcotest.check Alcotest.bool "no gap in value ids" true (Hashtbl.mem seen vid)
  done

(* ------------------------------------------------------------------ *)
(* Intern.Pool vs a reference interner *)

(* Int keys under a chosen hash, counting the pool's calls: the pool
   hashes a key once per operation (growth re-slots by stored hashes),
   and compares the stored hash before it calls [equal]. *)
module Counted (H : sig
  val hash : int -> int
end) =
struct
  type t = int

  let equals = ref 0

  let hashes = ref 0

  let equal a b =
    incr equals;
    Int.equal a b

  let hash k =
    incr hashes;
    H.hash k

  let dummy = -1
end

module Spread = Counted (struct
  let hash = Hashtbl.hash
end)

(* Negative hashes: the pool must mask them, not read them as empty. *)
module Negative = Counted (struct
  let hash k = lnot (Hashtbl.hash k)
end)

(* One probe run for every key. *)
module Constant = Counted (struct
  let hash _ = 7
end)

(* Distinct 31-bit hashes that agree in their low 12 bits: every key
   starts its probe at one slot of any table up to 4096 slots, and only
   the stored hash tells the keys of a run apart. *)
module Low_bits = Counted (struct
  let hash k = k lsl 12
end)

module Pool_diff (K : sig
  include Intern.KEY with type t = int

  val equals : int ref

  val hashes : int ref
end) =
struct
  module P = Intern.Pool (K)

  (* A random stream of interns, lookups (half of them of absent
     keys), decodes and counts over [keys] distinct keys, starting
     from [slots] slots; returns the number of lookups that found
     their key. *)
  let run what ~slots ~keys rng =
    let p = P.create slots in
    let ids = Hashtbl.create 64 and back = Hashtbl.create 64 in
    let hits = ref 0 and calls = ref 0 in
    K.equals := 0;
    K.hashes := 0;
    let key () = Util.Prng.int rng keys in
    for _ = 1 to 3 * keys do
      match Util.Prng.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 | 5 ->
          let k = key () in
          incr calls;
          let expected =
            match Hashtbl.find_opt ids k with
            | Some id ->
                incr hits;
                id
            | None ->
                let id = Hashtbl.length ids in
                Hashtbl.add ids k id;
                Hashtbl.add back id k;
                id
          in
          Alcotest.(check int) (what ^ ": intern") expected (P.intern p k)
      | 6 | 7 ->
          let k = if Util.Prng.bool rng then key () else keys + key () in
          incr calls;
          let expected = Hashtbl.find_opt ids k in
          if Option.is_some expected then incr hits;
          Alcotest.(check (option int)) (what ^ ": find_opt") expected (P.find_opt p k);
          Alcotest.(check int) (what ^ ": a lookup mints nothing") (Hashtbl.length ids) (P.count p)
      | 8 when Hashtbl.length ids > 0 ->
          let id = Util.Prng.int rng (Hashtbl.length ids) in
          Alcotest.(check int) (what ^ ": get") (Hashtbl.find back id) (P.get p id)
      | _ -> Alcotest.(check int) (what ^ ": count") (Hashtbl.length ids) (P.count p)
    done;
    for id = 0 to Hashtbl.length ids - 1 do
      Alcotest.(check int) (what ^ ": get, first-intern order") (Hashtbl.find back id) (P.get p id)
    done;
    Alcotest.(check int) (what ^ ": one hash per operation") !calls !K.hashes;
    !hits
end

module Spread_diff = Pool_diff (Spread)
module Negative_diff = Pool_diff (Negative)
module Constant_diff = Pool_diff (Constant)
module Low_bits_diff = Pool_diff (Low_bits)

let qcheck_pool =
  QCheck.Test.make ~count:30 ~name:"qcheck: Intern.Pool = reference interner"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Util.Prng.create seed in
      let what name = Printf.sprintf "%s (seed %d)" name seed in
      let slots = if Util.Prng.bool rng then 4 else 16 in
      (* up to 4000 keys: nine doublings from 4 slots *)
      ignore (Spread_diff.run (what "spread") ~slots ~keys:(Util.Prng.int_in rng 1 4000) rng);
      ignore (Negative_diff.run (what "negative") ~slots ~keys:(Util.Prng.int_in rng 1 1000) rng);
      ignore (Constant_diff.run (what "constant") ~slots ~keys:(Util.Prng.int_in rng 1 300) rng);
      let hits = Low_bits_diff.run (what "low bits") ~slots ~keys:(Util.Prng.int_in rng 1 2000) rng in
      Alcotest.(check int) (what "low bits: one equal per hit") hits !Low_bits.equals;
      true)

let test_pool_id_bound () =
  let module P = Intern.Pool (Spread) in
  let p = P.create ~id_bound:10 4 in
  for k = 0 to 9 do
    Alcotest.(check int) "below the bound" k (P.intern p (100 + k))
  done;
  Alcotest.check_raises "the bound's id" (Invalid_argument "Intern.Pool.intern: id bound reached") (fun () ->
      ignore (P.intern p 999));
  Alcotest.(check int) "a refused key is not minted" 10 (P.count p);
  Alcotest.(check (option int)) "nor found" None (P.find_opt p 999);
  Alcotest.(check int) "minted keys still resolve" 5 (P.intern p 105);
  Alcotest.check_raises "a bound past 2^31" (Invalid_argument "Intern.Pool.create: id bound") (fun () ->
      ignore (P.create ~id_bound:((1 lsl Intern.pack_bits) + 1) 4));
  Alcotest.check_raises "a size not a power of two" (Invalid_argument "Intern.Pool.create: slots") (fun () ->
      ignore (P.create 12))

(* ------------------------------------------------------------------ *)
(* Engine differential: reference = interned *)

(* Solve [app] with the reference and the interned engine, check they
   agree, and return the reference. *)
let check_engines name app =
  let reference = Analysis.reference app in
  Same_solution.check (name ^ "[reference vs interned]") reference (Analysis.analyze app);
  reference

let test_connectbot_engines () = ignore (check_engines "ConnectBot" (Corpus.Connectbot.app ()))

(* Agreement must hold under every ablation, not just the defaults. *)
let test_connectbot_all_configs () =
  let app = Corpus.Connectbot.app () in
  List.iter
    (fun (label, config) ->
      Same_solution.check ("ConnectBot(" ^ label ^ ")") (Analysis.reference ~config app)
        (Analysis.analyze ~config app))
    [
      ("default", Config.default);
      ("baseline", Config.baseline);
      ("no callbacks", { Config.default with listener_callbacks = false });
      ("inline 1", { Config.default with inline_depth = 1 });
      ("no cast filtering", { Config.default with cast_filtering = false });
    ]

(* The largest corpus app, solved once by each engine and checked to
   agree; shared by the two work-counter tests below. *)
let xbmc_runs =
  lazy
    (let app = Corpus.Gen.generate (Option.get (Corpus.Apps.by_name "XBMC")) in
     let n = Analysis.reference app in
     let r = Analysis.analyze app in
     Same_solution.check "XBMC" n r;
     (n, r))

(* On XBMC the interned engine's semi-naive schedule applies strictly
   fewer op rules than the reference's [rounds * |ops|] re-iteration,
   and fewer than its own round count times |ops|. *)
let test_xbmc_work_counters () =
  let n, r = Lazy.force xbmc_runs in
  let s = r.stats in
  let ops = List.length (Graph.ops n.graph) in
  Alcotest.check Alcotest.int "reference applies rounds*|ops|"
    (n.stats.Solve.iterations * ops)
    n.stats.Solve.op_applications;
  Alcotest.check Alcotest.bool "interned applies fewer ops than the reference" true
    (s.Solve.op_applications < n.stats.Solve.op_applications);
  Alcotest.check Alcotest.bool "interned beats its own rounds*|ops| bound" true
    (s.Solve.op_applications < s.Solve.iterations * ops);
  Alcotest.check Alcotest.bool "delta pushes recorded" true (s.Solve.delta_pushes > 0);
  Alcotest.check Alcotest.bool "descendants cache exercised" true (s.Solve.desc_cache_hits > 0)

(* The interned engine reports its interner and bitset work. *)
let test_interned_work_counters () =
  let _, r = Lazy.force xbmc_runs in
  let s = r.stats in
  Alcotest.check Alcotest.bool "values interned" true (s.Solve.interned_values > 0);
  Alcotest.check Alcotest.bool "nodes interned" true (s.Solve.interned_nodes > 0);
  Alcotest.check Alcotest.bool "bitset words allocated" true (s.Solve.bitset_words > 0);
  Alcotest.check Alcotest.bool "word-level unions performed" true (s.Solve.union_calls > 0)

let test_qcheck_engines =
  QCheck.Test.make ~count:10 ~name:"random app: naive = interned"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Util.Prng.create seed in
      let spec = Corpus.Gen.random_spec ~name:(Printf.sprintf "QIntern_%d" seed) rng in
      ignore (check_engines spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec));
      true)

(* Corpus through both engines: the solutions must render to
   byte-identical tables, sequentially and with jobs=4. *)
let test_corpus_reports_identical () =
  let reference = Report.Experiments.run_corpus ~config:Config.default ~jobs:1 () in
  List.iter
    (fun (engine, run) ->
      List.iter
        (fun jobs ->
          let label = Printf.sprintf "%s/jobs=%d" engine jobs in
          let candidate = run jobs in
          Alcotest.check Alcotest.string (label ^ ": table1 bytes")
            (Report.Experiments.table1 reference)
            (Report.Experiments.table1 candidate);
          Alcotest.check Alcotest.string (label ^ ": table2 bytes")
            (Report.Experiments.table2 ~timings:false reference)
            (Report.Experiments.table2 ~timings:false candidate))
        [ 1; 4 ])
    [
      ("reference", fun jobs -> Reference_corpus.run ~jobs ());
      ("interned", fun jobs -> Report.Experiments.run_corpus ~jobs ());
    ];
  (* the interned work-counter report itself is schedule-independent *)
  Alcotest.check Alcotest.string "interned solverstats bytes, jobs 1 = jobs 4"
    (Report.Experiments.solver_stats (Report.Experiments.run_corpus ~jobs:1 ()))
    (Report.Experiments.solver_stats (Report.Experiments.run_corpus ~jobs:4 ()))

(* ------------------------------------------------------------------ *)
(* SCC condensation: cycle-heavy apps *)

(* [Bitset.same] is physical identity — the aliasing test for shared
   component sets in the condensed engine. *)
let test_bitset_same () =
  let a = Util.Bitset.create () in
  ignore (Util.Bitset.add a 3);
  let alias = a and copy = Util.Bitset.copy a in
  Alcotest.check Alcotest.bool "alias is same" true (Util.Bitset.same a alias);
  Alcotest.check Alcotest.bool "copy is not same" false (Util.Bitset.same a copy);
  Alcotest.check Alcotest.bool "copy is still equal" true (Util.Bitset.equal a copy)

let test_cyclic_engines () =
  let app =
    Corpus.Gen.cyclic_app ~name:"CycBig" ~chains:3 ~chain_len:9 ~two_cycles:2 ~bridges:4 ~seed:41
      ()
  in
  let reference = check_engines "CycBig" app in
  (* the rings actually carry abstract views: the listener registered
     on a ring variable reaches its SETLISTENER operation *)
  let setlistener_ops =
    List.filter
      (fun (op : Graph.op) ->
        match op.site.o_kind with Framework.Api.Set_listener _ -> true | _ -> false)
      (Graph.ops reference.graph)
  in
  Alcotest.check Alcotest.bool "listener reaches its registration" true
    (List.exists (fun op -> Analysis.op_listeners reference op <> []) setlistener_ops)

(* The condensation stats surface through the interned engine, and the
   listener's empty-bodied handlers force node ids to be minted after
   the flow CSR froze — the path covered by the [irep] bounds guard. *)
let test_scc_stats_and_midsolve_minting () =
  let chain_len = 8 in
  let app =
    Corpus.Gen.cyclic_app ~name:"CycStats" ~chains:2 ~chain_len ~two_cycles:1 ~bridges:2 ~seed:5
      ()
  in
  let r = Analysis.analyze app in
  let s = r.stats in
  Alcotest.check Alcotest.bool "sccs counted" true (s.Solve.scc_count > 0);
  Alcotest.check Alcotest.bool "a ring condensed" true (s.Solve.largest_scc >= chain_len);
  let fc = Graph.frozen_flow r.graph in
  Alcotest.check Alcotest.bool "nodes minted after freeze" true
    (s.Solve.interned_nodes > fc.Graph.fc_nodes)

let test_qcheck_cyclic_engines =
  QCheck.Test.make ~count:10 ~name:"cyclic app: naive = interned"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Util.Prng.create seed in
      let app = Corpus.Gen.random_cyclic_app ~name:(Printf.sprintf "QCyc_%d" seed) rng in
      ignore (check_engines (Printf.sprintf "QCyc_%d" seed) app);
      true)

(* Cycle-heavy batch under the worker pool: the condensed engine's
   solution must be independent of domain scheduling.  Every pooled
   interned run is checked against a sequential reference run. *)
let test_cyclic_jobs () =
  let mk i =
    Corpus.Gen.cyclic_app
      ~name:(Printf.sprintf "CycJ%d" i)
      ~chains:(1 + (i mod 3))
      ~chain_len:(3 + i) ~two_cycles:(i mod 3) ~bridges:i ~seed:(900 + i) ()
  in
  let apps = List.init 6 mk in
  let references = List.map (fun app -> Analysis.reference app) apps in
  List.iter
    (fun jobs ->
      let outcomes =
        Pool.run ~jobs (List.map (fun app () -> Analysis.analyze app) apps)
      in
      List.iteri
        (fun i outcome ->
          Same_solution.check
            (Printf.sprintf "CycJ%d[jobs=%d]" i jobs)
            (List.nth references i) (Pool.value_exn outcome))
        outcomes)
    [ 1; 4 ]

let suite =
  [
    Alcotest.test_case "bitset vs reference set" `Quick test_bitset_random;
    Alcotest.test_case "bitset union_delta semantics" `Quick test_bitset_union_delta;
    Alcotest.test_case "bitset physical identity (same)" `Quick test_bitset_same;
    Alcotest.test_case "interner round-trip and dense ids" `Quick test_interner_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_pool;
    Alcotest.test_case "pool id bound" `Quick test_pool_id_bound;
    Alcotest.test_case "ConnectBot: naive and interned agree" `Quick test_connectbot_engines;
    Alcotest.test_case "ConnectBot equivalence (all configs)" `Quick test_connectbot_all_configs;
    Alcotest.test_case "XBMC work counters" `Quick test_xbmc_work_counters;
    Alcotest.test_case "interned work counters" `Quick test_interned_work_counters;
    QCheck_alcotest.to_alcotest test_qcheck_engines;
    Alcotest.test_case "cyclic app: naive and interned agree" `Quick test_cyclic_engines;
    Alcotest.test_case "cyclic app: scc stats and mid-solve minting" `Quick
      test_scc_stats_and_midsolve_minting;
    QCheck_alcotest.to_alcotest test_qcheck_cyclic_engines;
    Alcotest.test_case "cyclic batch under pool (jobs 1/4)" `Slow test_cyclic_jobs;
    Alcotest.test_case "corpus reports byte-identical (jobs 1/4)" `Slow
      test_corpus_reports_identical;
  ]
