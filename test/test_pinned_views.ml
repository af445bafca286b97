(* Byte pins for what an extracted graph shows.  The flow adjacency is
   stored once, as interned ids: [Graph.locations] and [Graph.pp_dot]
   decode it with context-clone edges hidden, and the snapshot file
   dumps the id-level CSR.  The digests were taken from a build that
   kept a separate structural edge table beside the id table, so a
   drift in the clone filter, the decode order or the node-id minting
   order shows up here as a changed byte. *)

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
            (label "dot", hex (Fmt.str "%a" Graph.pp_dot graph));
            (label "snapshot", snapshot);
          ])
        configs)
    (apps ())

let pinned =
  [
    ("XBMC@default locations unsolved", "dd56cdf4ffc533f9340a4394abc34a25");
    ("XBMC@default locations", "aa826afb5328540034b2e2a09b99b722");
    ("XBMC@default dot", "06076dde9e032377a42ddd0dd77e4c7f");
    ("XBMC@default snapshot", "48cd9bd4799e47cf2d6e1526a58d7df5");
    ("XBMC@cs2 locations unsolved", "8e5a11dad02728d66caed58916dec21b");
    ("XBMC@cs2 locations", "c1063320e7e12ff9537c86c8f1279581");
    ("XBMC@cs2 dot", "2a81609ab28a88538488a4f6c5b08624");
    ("XBMC@cs2 snapshot", "ed68f8965251b4de747824c77ed669b1");
    ("ConnectBot@default locations unsolved", "924df44f9904e89fefd58c7eb8981acb");
    ("ConnectBot@default locations", "df4c699152bfdf975df9fe6b85aefe7b");
    ("ConnectBot@default dot", "d8ee2f88340e01b542313d16261a1853");
    ("ConnectBot@default snapshot", "623b99ceffbdc34cdc5b9ce223b05d9a");
    ("ConnectBot@cs2 locations unsolved", "cc9efae2a3a3e88895ce55a69fdbbeff");
    ("ConnectBot@cs2 locations", "835f7c6b64341e0a0b4be79262211e63");
    ("ConnectBot@cs2 dot", "2f8e8fdb179fbf228010e19ed50e0555");
    ("ConnectBot@cs2 snapshot", "d4280211c7534520e00d05217d618540");
    ("Figure1@default locations unsolved", "d3cc2103c5d9b944e92382b18f7f6a9f");
    ("Figure1@default locations", "bc0e2698008ac049eb226b1c0d699523");
    ("Figure1@default dot", "3f18006e0735e2f52d15806d3f948e9d");
    ("Figure1@default snapshot", "29ee6e60989ac994a472d38cba681962");
    ("Figure1@cs2 locations unsolved", "b53157c342df5ce293a6e71e211940ab");
    ("Figure1@cs2 locations", "27d0170b191a636ba489088df71d3a52");
    ("Figure1@cs2 dot", "4283e1c6511fb1b18450c30b43111461");
    ("Figure1@cs2 snapshot", "f23e7ccc60011fd550f3aeb61d88c955");
    ("Cyclic@default locations unsolved", "1a7aba40323dbffc042d0f04af1062b5");
    ("Cyclic@default locations", "4d5051f2595826d5e0513e28d68b0209");
    ("Cyclic@default dot", "18f3107a4f595a0006cc563a559ad95c");
    ("Cyclic@default snapshot", "8c22d4a78465da9c0bbcf378e4ae11e3");
    ("Cyclic@cs2 locations unsolved", "1a7aba40323dbffc042d0f04af1062b5");
    ("Cyclic@cs2 locations", "4d5051f2595826d5e0513e28d68b0209");
    ("Cyclic@cs2 dot", "18f3107a4f595a0006cc563a559ad95c");
    ("Cyclic@cs2 snapshot", "33d046cd7357fced4a10d2875f90b362");
    ("Alias@default locations unsolved", "bba7f1710ac70adc3d21b8b1a85f2205");
    ("Alias@default locations", "bba7f1710ac70adc3d21b8b1a85f2205");
    ("Alias@default dot", "14a2c68a655a834010c44ffbfb0465b4");
    ("Alias@default snapshot", "979d5a86c3abf48449aa5e2d966e3e99");
    ("Alias@cs2 locations unsolved", "c99a82c741a2ff31ee86d2f412182e77");
    ("Alias@cs2 locations", "7166484ef86767269ad6efb99c78b288");
    ("Alias@cs2 dot", "383c16ee9c1ed0aadf7a77256258c3e4");
    ("Alias@cs2 snapshot", "87e698b17dc3d26855d7a0a40c3d73d8");
  ]

let test_pinned () =
  let got = digests () in
  Alcotest.check Alcotest.int "digest count" (List.length pinned) (List.length got);
  List.iter2
    (fun (label, expected) (label', digest) ->
      Alcotest.check Alcotest.string "label" label label';
      Alcotest.check Alcotest.string label expected digest)
    pinned got

let suite = [ Alcotest.test_case "structural views byte-identical to the pins" `Quick test_pinned ]
