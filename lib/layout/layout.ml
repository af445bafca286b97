type node = {
  view_class : string;
  id : string option;
  children : node list;
  include_of : string option;
  onclick : string option;
  fragment_class : string option;
}

type def = { name : string; root : node }

type path = int list

let node ?id ?onclick ?fragment ?(children = []) view_class =
  { view_class; id; children; include_of = None; onclick; fragment_class = fragment }

let merge_root = "merge"

let def ~name root = { name; root }

let id_of_attr value =
  let strip prefix =
    if String.length value > String.length prefix && String.sub value 0 (String.length prefix) = prefix
    then Some (String.sub value (String.length prefix) (String.length value - String.length prefix))
    else None
  in
  match strip "@+id/" with
  | Some name -> Ok (Some name)
  | None -> (
      match strip "@id/" with
      | Some name -> Ok (Some name)
      | None -> Error (Printf.sprintf "malformed android:id value %S" value))

let layout_ref_of_attr value =
  let prefix = "@layout/" in
  if String.length value > String.length prefix && String.sub value 0 (String.length prefix) = prefix
  then Ok (String.sub value (String.length prefix) (String.length value - String.length prefix))
  else Error (Printf.sprintf "malformed layout reference %S" value)

let rec node_of_xml (xml : Axml.t) =
  let ( let* ) = Result.bind in
  let* id =
    match Axml.attr xml "android:id" with
    | None -> Ok None
    | Some value -> id_of_attr value
  in
  let* include_of =
    if xml.Axml.tag <> "include" then Ok None
    else
      match Axml.attr xml "layout" with
      | Some value -> Result.map Option.some (layout_ref_of_attr value)
      | None -> Error "<include> element without a layout attribute"
  in
  let rec convert_children acc = function
    | [] -> Ok (List.rev acc)
    | child :: rest ->
        let* c = node_of_xml child in
        convert_children (c :: acc) rest
  in
  let* children = convert_children [] xml.Axml.children in
  let* fragment_class =
    if xml.Axml.tag <> "fragment" then Ok None
    else
      match (Axml.attr xml "android:name", Axml.attr xml "class") with
      | Some cls, _ | None, Some cls -> Ok (Some cls)
      | None, None -> Error "<fragment> element without android:name"
  in
  (* a <fragment> placeholder behaves as a simple container *)
  let view_class = if fragment_class <> None then "FrameLayout" else xml.Axml.tag in
  Ok
    {
      view_class;
      id;
      children;
      include_of;
      onclick = Axml.attr xml "android:onClick";
      fragment_class;
    }

let of_xml ~name xml = Result.map (fun root -> { name; root }) (node_of_xml xml)

let parse ~name src =
  match Axml.parse src with Ok xml -> of_xml ~name xml | Error e -> Error e

let parse_exn ~name src =
  match parse ~name src with Ok d -> d | Error e -> failwith (Printf.sprintf "layout %s: %s" name e)

let rec node_to_xml n =
  let attrs = match n.id with Some i -> [ ("android:id", "@+id/" ^ i) ] | None -> [] in
  let attrs =
    match n.include_of with Some l -> attrs @ [ ("layout", "@layout/" ^ l) ] | None -> attrs
  in
  let attrs =
    match n.onclick with Some h -> attrs @ [ ("android:onClick", h) ] | None -> attrs
  in
  match n.fragment_class with
  | Some cls ->
      Axml.element
        ~attrs:(attrs @ [ ("android:name", cls) ])
        ~children:(List.map node_to_xml n.children) "fragment"
  | None -> Axml.element ~attrs ~children:(List.map node_to_xml n.children) n.view_class

let to_xml d = node_to_xml d.root

let pp ppf d = Axml.pp ppf (to_xml d)

let fold d ~init ~f =
  let rec go acc path n =
    let acc = f acc (List.rev path) n in
    List.fold_left
      (fun (acc, i) child -> (go acc (i :: path) child, i + 1))
      (acc, 0) n.children
    |> fst
  in
  go init [] d.root

let nodes d = List.rev (fold d ~init:[] ~f:(fun acc path n -> (path, n) :: acc))

let size d = fold d ~init:0 ~f:(fun acc _ _ -> acc + 1)

let find d path =
  let rec go n = function
    | [] -> Some n
    | i :: rest -> ( match List.nth_opt n.children i with Some c -> go c rest | None -> None)
  in
  go d.root path

let ids d =
  List.rev
    (fold d ~init:[] ~f:(fun acc _ n -> match n.id with Some i -> i :: acc | None -> acc))

let find_by_id d target =
  List.filter (fun (_, n) -> n.id = Some target) (nodes d)

let edges d =
  List.rev
    (fold d ~init:[] ~f:(fun acc path n ->
         List.fold_left
           (fun (acc, i) _ -> ((path, path @ [ i ]) :: acc, i + 1))
           (acc, 0) n.children
         |> fst))

let register resources d =
  ignore (Resource.layout_id resources d.name);
  List.iter (fun i -> ignore (Resource.view_id resources i)) (ids d)
