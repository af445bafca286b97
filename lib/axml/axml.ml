type t = { tag : string; attrs : (string * string) list; children : t list }

let element ?(attrs = []) ?(children = []) tag = { tag; attrs; children }

let attr t name = List.assoc_opt name t.attrs

exception Error of string * int * int

type cursor = { src : string; mutable off : int; mutable line : int; mutable col : int }

let error cur message = raise (Error (message, cur.line, cur.col))

let peek cur = if cur.off < String.length cur.src then Some cur.src.[cur.off] else None

let advance cur =
  (match peek cur with
  | Some '\n' ->
      cur.line <- cur.line + 1;
      cur.col <- 1
  | Some _ -> cur.col <- cur.col + 1
  | None -> ());
  cur.off <- cur.off + 1

let looking_at cur s =
  let n = String.length s in
  cur.off + n <= String.length cur.src && String.sub cur.src cur.off n = s

let skip_string cur s = String.iter (fun _ -> advance cur) s

let is_space = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let rec skip_space cur =
  match peek cur with
  | Some c when is_space c ->
      advance cur;
      skip_space cur
  | _ -> ()

let rec skip_misc cur =
  skip_space cur;
  if looking_at cur "<!--" then begin
    skip_string cur "<!--";
    let rec to_close () =
      if looking_at cur "-->" then skip_string cur "-->"
      else if cur.off >= String.length cur.src then error cur "unterminated comment"
      else begin
        advance cur;
        to_close ()
      end
    in
    to_close ();
    skip_misc cur
  end
  else if looking_at cur "<?" then begin
    skip_string cur "<?";
    let rec to_close () =
      if looking_at cur "?>" then skip_string cur "?>"
      else if cur.off >= String.length cur.src then error cur "unterminated processing instruction"
      else begin
        advance cur;
        to_close ()
      end
    in
    to_close ();
    skip_misc cur
  end

let name cur =
  match peek cur with
  | Some c when is_name_start c ->
      let start = cur.off in
      while (match peek cur with Some c -> is_name_char c | None -> false) do
        advance cur
      done;
      String.sub cur.src start (cur.off - start)
  | _ -> error cur "expected a name"

let decode_entities cur s =
  if not (String.contains s '&') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '&' then begin
        match String.index_from_opt s !i ';' with
        | None -> error cur "unterminated entity"
        | Some j ->
            let entity = String.sub s (!i + 1) (j - !i - 1) in
            let repl =
              match entity with
              | "amp" -> "&"
              | "lt" -> "<"
              | "gt" -> ">"
              | "quot" -> "\""
              | "apos" -> "'"
              | other -> error cur (Printf.sprintf "unknown entity &%s;" other)
            in
            Buffer.add_string buf repl;
            i := j + 1
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

let attr_value cur =
  let quote =
    match peek cur with
    | Some (('"' | '\'') as q) ->
        advance cur;
        q
    | _ -> error cur "expected a quoted attribute value"
  in
  let start = cur.off in
  while (match peek cur with Some c -> c <> quote | None -> false) do
    advance cur
  done;
  if peek cur = None then error cur "unterminated attribute value";
  let raw = String.sub cur.src start (cur.off - start) in
  advance cur;
  decode_entities cur raw

(* Deeper nesting is refused: the reader and every tree walk over its
   result recurse once per level, and a deep stack makes each minor
   collection rescan it, so unbounded depth costs quadratic time. *)
let max_depth = 256

let rec parse_element cur depth =
  if not (looking_at cur "<") then error cur "expected '<'";
  if depth > max_depth then error cur (Printf.sprintf "elements nested deeper than %d" max_depth);
  advance cur;
  let tag = name cur in
  let rec attrs acc =
    skip_space cur;
    match peek cur with
    | Some '>' ->
        advance cur;
        let children = parse_children cur tag depth in
        { tag; attrs = List.rev acc; children }
    | Some '/' ->
        advance cur;
        if peek cur = Some '>' then begin
          advance cur;
          { tag; attrs = List.rev acc; children = [] }
        end
        else error cur "expected '>' after '/'"
    | Some c when is_name_start c ->
        let key = name cur in
        skip_space cur;
        (match peek cur with
        | Some '=' -> advance cur
        | _ -> error cur "expected '=' in attribute");
        skip_space cur;
        let value = attr_value cur in
        attrs ((key, value) :: acc)
    | Some c -> error cur (Printf.sprintf "unexpected character %C in tag" c)
    | None -> error cur "unterminated tag"
  in
  attrs []

and parse_children cur tag depth =
  let out = ref [] in
  let rec loop () =
    skip_misc cur;
    if looking_at cur "</" then begin
      skip_string cur "</";
      let closing = name cur in
      skip_space cur;
      if peek cur = Some '>' then advance cur else error cur "expected '>'";
      if closing <> tag then
        error cur (Printf.sprintf "mismatched closing tag </%s> for <%s>" closing tag)
    end
    else if looking_at cur "<" then begin
      out := parse_element cur (depth + 1) :: !out;
      loop ()
    end
    else if cur.off >= String.length cur.src then
      error cur (Printf.sprintf "unterminated element <%s>" tag)
    else begin
      (* Layouts carry no meaningful text content; skip it. *)
      advance cur;
      loop ()
    end
  in
  loop ();
  List.rev !out

let parse src =
  let cur = { src; off = 0; line = 1; col = 1 } in
  match
    skip_misc cur;
    let root = parse_element cur 1 in
    skip_misc cur;
    if cur.off < String.length cur.src then error cur "trailing content after root element";
    root
  with
  | root -> Ok root
  | exception Error (message, line, col) -> Error (Printf.sprintf "%d:%d: %s" line col message)

let parse_exn src = match parse src with Ok t -> t | Error e -> failwith e

let encode_entities s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\'' -> Buffer.add_string buf "&apos;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec pp ppf t =
  let pp_attr ppf (k, v) = Fmt.pf ppf " %s=\"%s\"" k (encode_entities v) in
  match t.children with
  | [] -> Fmt.pf ppf "<%s%a />" t.tag (Fmt.list ~sep:Fmt.nop pp_attr) t.attrs
  | children ->
      Fmt.pf ppf "@[<v 2><%s%a>@,%a@]@,</%s>" t.tag
        (Fmt.list ~sep:Fmt.nop pp_attr)
        t.attrs
        (Fmt.list ~sep:Fmt.cut pp)
        children t.tag

let to_string t = Fmt.str "%a@." pp t

let rec equal a b =
  a.tag = b.tag && a.attrs = b.attrs
  && List.length a.children = List.length b.children
  && List.for_all2 equal a.children b.children
