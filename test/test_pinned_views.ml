(* Byte pins for what an extracted graph shows.  The flow adjacency is
   stored once, as interned ids: [Graph.locations] and [Reader.pp_dot]
   decode it with context-clone edges hidden, and the snapshot file
   dumps the id-level CSR.  The digests were taken from a build that
   kept a separate structural edge table beside the id table, so a
   drift in the clone filter, the decode order or the node-id minting
   order shows up here as a changed byte.  The solved [locations] and
   [dot] pins were re-taken when solutions moved into the solver's
   id-level store (the solve-only locations and the relation edges
   now come in ascending id order instead of hash-table order); each
   new text equals the old one as a sorted multiset of lines.  The
   snapshot pins were re-taken when the method fingerprint started
   covering parameter names (each file differed from the one before
   only in its [method_fp] value), and again at snapshot version 3:
   each file differs from the one before only in its [version] and in
   lacking the [onclicks], [declared_fragments] and [root_layouts]
   fields. *)

open Gator

let cs2 = { Config.default with inline_depth = 2 }

let corpus name =
  match Corpus.Apps.by_name name with
  | Some spec -> Corpus.Apps.generate spec
  | None -> Alcotest.failf "no corpus app %s" name

let apps () =
  [
    ("XBMC", corpus "XBMC");
    ("ConnectBot", corpus "ConnectBot");
    ("Figure1", Corpus.Connectbot.app ());
    ( "Cyclic",
      Corpus.Gen.cyclic_app ~name:"Pinned" ~chains:3 ~chain_len:5 ~two_cycles:2 ~bridges:3 ~seed:17
        () );
    (* shared helpers called from many sites: the clone-heavy case *)
    ("Alias", Corpus.Gen.alias_heavy_app ~name:"Pinned" ~groups:3 ~sites_per_group:4 ~seed:23 ());
  ]

let configs = [ ("default", Config.default); ("cs2", cs2) ]

let hex s = Digest.to_hex (Digest.string s)

let locations_text graph =
  String.concat "\n" (List.map (Fmt.str "%a" Node.pp) (Graph.locations graph))

(* Four digests per app and config: the unsolved graph's locations
   (sets are still empty, so only the edge decode contributes), then
   after a capturing solve the locations, the dot rendering and the
   snapshot file. *)
let digests () =
  List.concat_map
    (fun (app_name, app) ->
      List.concat_map
        (fun (cfg_name, config) ->
          let label what = Printf.sprintf "%s@%s %s" app_name cfg_name what in
          let graph = Extract.run config app in
          let unsolved = hex (locations_text graph) in
          let _, solved = Solve.run_solved config app graph in
          let path = Filename.temp_file "gator_pinned" ".json" in
          let snapshot =
            Fun.protect
              ~finally:(fun () -> Sys.remove path)
              (fun () ->
                Snapshot.save solved path;
                Digest.to_hex (Digest.file path))
          in
          [
            (label "locations unsolved", unsolved);
            (label "locations", hex (locations_text graph));
            (label "dot", hex (Fmt.str "%a" Reader.pp_dot graph));
            (label "snapshot", snapshot);
          ])
        configs)
    (apps ())

let pinned =
  [
    ("XBMC@default locations unsolved", "dd56cdf4ffc533f9340a4394abc34a25");
    ("XBMC@default locations", "979931631747e0850c8bd428aef36db9");
    ("XBMC@default dot", "760007d9b77aa27be44cedb057d663ec");
    ("XBMC@default snapshot", "f979bce3025dcd4c51979fc049ed63ff");
    ("XBMC@cs2 locations unsolved", "8e5a11dad02728d66caed58916dec21b");
    ("XBMC@cs2 locations", "293a672f46a085ce374513aec14f3355");
    ("XBMC@cs2 dot", "be1f8ae8e018d4dc097704bc9f95bde7");
    ("XBMC@cs2 snapshot", "6c6678756760a632b316c6dbab56c26c");
    ("ConnectBot@default locations unsolved", "924df44f9904e89fefd58c7eb8981acb");
    ("ConnectBot@default locations", "bc5bcec4ce0fe473903ddb1fa387fb6d");
    ("ConnectBot@default dot", "13536a6d800858e684e33c246cc020d6");
    ("ConnectBot@default snapshot", "90061726b53f82cb98b4169e60091d2c");
    ("ConnectBot@cs2 locations unsolved", "cc9efae2a3a3e88895ce55a69fdbbeff");
    ("ConnectBot@cs2 locations", "cc866dab83744c784e0395ec5f655ef3");
    ("ConnectBot@cs2 dot", "a2a79cb20a6249e30d3708c089734021");
    ("ConnectBot@cs2 snapshot", "c4c2d54647830fe63ebb05a6229e3f6d");
    ("Figure1@default locations unsolved", "d3cc2103c5d9b944e92382b18f7f6a9f");
    ("Figure1@default locations", "634deeba35e37c268d3c0269aecbf0f2");
    ("Figure1@default dot", "575a77e6f772e1f27ae50c7015c979d0");
    ("Figure1@default snapshot", "4059e9fc52c469b138d9dae5865ec43e");
    ("Figure1@cs2 locations unsolved", "b53157c342df5ce293a6e71e211940ab");
    ("Figure1@cs2 locations", "3d77e09fe09fa595588c57f1fe1e10d4");
    ("Figure1@cs2 dot", "4a5bc65a0e3d949607313842b63d2b53");
    ("Figure1@cs2 snapshot", "05d3985dd3dbed54665ba0b4c1b94369");
    ("Cyclic@default locations unsolved", "1a7aba40323dbffc042d0f04af1062b5");
    ("Cyclic@default locations", "55494abf8fe24a759ae7bb2d68f97d1e");
    ("Cyclic@default dot", "f4a1efd685bf688379a33fc9ed38d489");
    ("Cyclic@default snapshot", "c889ae4f3f381110e66909beaaa499ce");
    ("Cyclic@cs2 locations unsolved", "1a7aba40323dbffc042d0f04af1062b5");
    ("Cyclic@cs2 locations", "55494abf8fe24a759ae7bb2d68f97d1e");
    ("Cyclic@cs2 dot", "f4a1efd685bf688379a33fc9ed38d489");
    ("Cyclic@cs2 snapshot", "4575cbeec0ec21b13b1601a93feeddd0");
    ("Alias@default locations unsolved", "bba7f1710ac70adc3d21b8b1a85f2205");
    ("Alias@default locations", "bba7f1710ac70adc3d21b8b1a85f2205");
    ("Alias@default dot", "3bb02cdc7d836a37a9a39e7ae8abd490");
    ("Alias@default snapshot", "504914eb73a622f4c71376468c741773");
    ("Alias@cs2 locations unsolved", "c99a82c741a2ff31ee86d2f412182e77");
    ("Alias@cs2 locations", "fa2fdf22faf362f02be7ebb6b18c8333");
    ("Alias@cs2 dot", "b84d66f020911dda51bbb361ab043399");
    ("Alias@cs2 snapshot", "212839fbc04f8cda102ff5db42bcac6f");
  ]

let test_pinned () =
  let got = digests () in
  Alcotest.check Alcotest.int "digest count" (List.length pinned) (List.length got);
  List.iter2
    (fun (label, expected) (label', digest) ->
      Alcotest.check Alcotest.string "label" label label';
      Alcotest.check Alcotest.string label expected digest)
    pinned got

(* The interaction tuples [gator --interactions] prints, per corpus
   app and for Figure 1.  Taken from a build whose holder closure
   unioned a per-root descendants walk. *)
let interaction_pins =
  [
    ("APV", "fb2e86135cfe898765b07ea6be100ca2");
    ("Astrid", "b1955a11960d938487bee0047e5cdd0e");
    ("BarcodeScanner", "df941a307b7faa236425eca71cda8ec8");
    ("Beem", "91e2075e5dfeaeaed456c345238803ee");
    ("ConnectBot", "5eb095b91f2fd7a2f16d8ab02b6bf169");
    ("FBReader", "e761e3589c511ae4612ecdb4b466ac8e");
    ("K9", "af072cf37768529e40c5c098457feedf");
    ("KeePassDroid", "eeee4e2f488a7856c71445e690181119");
    ("Mileage", "04106f35942dc7a1da54ac91470ff6df");
    ("MyTracks", "cb0239d94104b1db177bdad89f590db6");
    ("NPR", "9348d582b4e104b957c3303f4897862e");
    ("NotePad", "0afb852b5e3eb0dca747df892ae517cd");
    ("OpenManager", "47f62cd32564d948401479626979ca7a");
    ("OpenSudoku", "633468e7b3697fa917ec249e22cabe51");
    ("SipDroid", "2b6c11e6340d49c4917c2e5b381b8538");
    ("SuperGenPass", "419b2b41013dcb43955a46e0ec394be3");
    ("TippyTipper", "2e5669d128d4344ca7e79e022db3b20d");
    ("VLC", "048d5bc1273996770a000e1855c0e97d");
    ("VuDroid", "2dda155c4b4da25eadbaf64f8b9b4e23");
    ("XBMC", "ec0e5fb77c2e33124274cea32b068014");
    ("Figure1", "7d983bb66ba28ba82ea26f7a23a7b316");
  ]

let test_interactions () =
  let text app =
    let r = Analysis.analyze app in
    String.concat "\n" (List.map (Fmt.str "%a" Analysis.pp_interaction) (Analysis.interactions r))
  in
  let got =
    List.map
      (fun (spec : Corpus.Spec.t) -> (spec.Corpus.Spec.sp_name, Corpus.Apps.generate spec))
      Corpus.Apps.specs
    @ [ ("Figure1", Corpus.Connectbot.app ()) ]
  in
  Alcotest.check Alcotest.int "app count" (List.length interaction_pins) (List.length got);
  List.iter2
    (fun (name, expected) (name', app) ->
      Alcotest.check Alcotest.string "app" name name';
      Alcotest.check Alcotest.string name expected (hex (text app)))
    interaction_pins got

(* The solver's work counters: a change in the order ops push
   values, mint ids or insert relation rows moves them even where the
   solution stays the same.  One line per input, the five pinned apps
   at both configs plus ReflHeavy in sound mode; a failure names the
   counters it read. *)
let counters_text config app =
  let graph = Extract.run config app in
  let s = Solve.run config app graph in
  Printf.sprintf
    "iterations=%d propagations=%d op_applications=%d delta_pushes=%d desc_hits=%d desc_misses=%d \
     union_calls=%d bitset_words=%d values=%d nodes=%d"
    s.iterations s.propagations s.op_applications s.delta_pushes s.desc_cache_hits
    s.desc_cache_misses s.union_calls s.bitset_words s.interned_values s.interned_nodes

let counter_inputs () =
  List.concat_map
    (fun (app_name, app) ->
      List.map (fun (cfg_name, config) -> (Printf.sprintf "%s@%s" app_name cfg_name, config, app)) configs)
    (apps ())
  @ [ ("ReflHeavy@sound", Config.default, Corpus.Gen.reflective_app ~layouts:3 ~seed:42 ()) ]

let counter_pins =
  [
    ("XBMC@default", "bbb0577a1a02b95e90102de79d16c38a");
    ("XBMC@cs2", "cad4dea8d6b0d76cf9d8172eabfaeed2");
    ("ConnectBot@default", "90c9c1e554e39d4026e3952f236c10eb");
    ("ConnectBot@cs2", "8913ff06464585330d0f19659171b3e1");
    ("Figure1@default", "96a153d45018134a5ffb7b4d4b5fcc28");
    ("Figure1@cs2", "8b4c1042c4007b8934394eedd8886c7d");
    ("Cyclic@default", "f4a0ce438f54bdda92488716277513ba");
    ("Cyclic@cs2", "f4a0ce438f54bdda92488716277513ba");
    ("Alias@default", "a20e9d2bcacf9f0bec52526916357fc6");
    ("Alias@cs2", "06898c2629303d1d9dbd099ff85db4bf");
    ("ReflHeavy@sound", "e7ac1cdb6c1ee42a2dbf5bdbf789233c");
  ]

let test_counters () =
  let got = List.map (fun (label, config, app) -> (label, counters_text config app)) (counter_inputs ()) in
  Alcotest.check Alcotest.int "input count" (List.length counter_pins) (List.length got);
  List.iter2
    (fun (label, expected) (label', text) ->
      Alcotest.check Alcotest.string "label" label label';
      Alcotest.check Alcotest.string (label ^ ": " ^ text) expected (hex text))
    counter_pins got

let suite =
  [
    Alcotest.test_case "structural views byte-identical to the pins" `Quick test_pinned;
    Alcotest.test_case "interactions byte-identical to the pins" `Quick test_interactions;
    Alcotest.test_case "solver work counters byte-identical to the pins" `Quick test_counters;
  ]
