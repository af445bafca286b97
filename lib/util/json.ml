type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '"' ->
        Buffer.add_string buf "\\\"";
        incr i
    | '\\' ->
        Buffer.add_string buf "\\\\";
        incr i
    | '\n' ->
        Buffer.add_string buf "\\n";
        incr i
    | '\r' ->
        Buffer.add_string buf "\\r";
        incr i
    | '\t' ->
        Buffer.add_string buf "\\t";
        incr i
    | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c));
        incr i
    | '\xed' when !i + 2 < n ->
        (* 0xED leads U+D000..U+DFFF; the D800..DFFF half is CESU-8 —
           our own parser's lenient encoding of an unpaired \uXXXX
           surrogate.  Re-escape LONE surrogates so the text output is
           valid UTF-8 and text -> value -> text is byte-stable.  A
           true adjacent high+low pair must stay raw: escaping it
           would make the parser recombine the pair into one astral
           code point, different bytes from what we were given. *)
        let cesu at =
          if at + 2 < n then begin
            let b1 = Char.code s.[at + 1] and b2 = Char.code s.[at + 2] in
            if s.[at] = '\xed' && b1 land 0xC0 = 0x80 && b2 land 0xC0 = 0x80 then
              let cp = 0xD000 lor ((b1 land 0x3F) lsl 6) lor (b2 land 0x3F) in
              if cp >= 0xD800 then Some cp else None
            else None
          end
          else None
        in
        (match cesu !i with
        | Some cp ->
            let paired_low =
              cp <= 0xDBFF
              && match cesu (!i + 3) with Some lo -> lo >= 0xDC00 | None -> false
            in
            if paired_low then begin
              Buffer.add_string buf (String.sub s !i 6);
              i := !i + 6
            end
            else begin
              Buffer.add_string buf (Printf.sprintf "\\u%04x" cp);
              i := !i + 3
            end
        | None ->
            Buffer.add_char buf '\xed';
            incr i)
    | c when Char.code c < 0xF0 ->
        (* ASCII and 2-/3-byte UTF-8 (the BMP) pass through raw *)
        Buffer.add_char buf c;
        incr i
    | c ->
        (* 4-byte UTF-8 lead: a non-BMP code point.  \uXXXX can only
           name the BMP, so astral characters are escaped as a
           UTF-16 surrogate pair.  Malformed sequences fall through
           as raw bytes, like every other non-UTF-8 byte. *)
        let astral =
          if !i + 3 < n then begin
            let b0 = Char.code c in
            let b1 = Char.code s.[!i + 1] in
            let b2 = Char.code s.[!i + 2] in
            let b3 = Char.code s.[!i + 3] in
            if
              b0 land 0xF8 = 0xF0 && b1 land 0xC0 = 0x80 && b2 land 0xC0 = 0x80
              && b3 land 0xC0 = 0x80
            then
              let cp =
                ((b0 land 0x07) lsl 18)
                lor ((b1 land 0x3F) lsl 12)
                lor ((b2 land 0x3F) lsl 6)
                lor (b3 land 0x3F)
              in
              if cp >= 0x10000 && cp <= 0x10FFFF then Some cp else None
            else None
          end
          else None
        in
        (match astral with
        | Some cp ->
            let u = cp - 0x10000 in
            Buffer.add_string buf
              (Printf.sprintf "\\u%04x\\u%04x" (0xD800 lor (u lsr 10)) (0xDC00 lor (u land 0x3FF)));
            i := !i + 4
        | None ->
            Buffer.add_char buf c;
            incr i))
  done;
  Buffer.add_char buf '"'

let rec write ~pretty ~indent buf t =
  let pad n = if pretty then Buffer.add_string buf (String.make n ' ') in
  let newline () = if pretty then Buffer.add_char buf '\n' in
  match t with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | String s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      newline ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (indent + 2);
          write ~pretty ~indent:(indent + 2) buf item)
        items;
      newline ();
      pad indent;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      newline ();
      List.iteri
        (fun i (k, v) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (indent + 2);
          escape buf k;
          Buffer.add_string buf (if pretty then ": " else ":");
          write ~pretty ~indent:(indent + 2) buf v)
        fields;
      newline ();
      pad indent;
      Buffer.add_char buf '}'

let to_string ?(pretty = false) t =
  let buf = Buffer.create 256 in
  write ~pretty ~indent:0 buf t;
  Buffer.contents buf

let pp ppf t = Fmt.string ppf (to_string ~pretty:true t)

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Int x, Float y | Float y, Int x -> Float.is_integer y && int_of_float y = x
  | String x, String y -> x = y
  | List xs, List ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && equal v1 v2) xs ys
  | _ -> false

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_list = function List xs -> Some xs | _ -> None

(* ------------------------------ parser ------------------------------ *)

exception Fail of string * int

type cursor = { src : string; mutable off : int }

let error cur msg = raise (Fail (msg, cur.off))

let peek cur = if cur.off < String.length cur.src then Some cur.src.[cur.off] else None

let advance cur = cur.off <- cur.off + 1

let rec skip_ws cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      skip_ws cur
  | _ -> ()

let expect cur c =
  match peek cur with
  | Some x when x = c -> advance cur
  | _ -> error cur (Printf.sprintf "expected %C" c)

let literal cur word value =
  let n = String.length word in
  if cur.off + n <= String.length cur.src && String.sub cur.src cur.off n = word then begin
    cur.off <- cur.off + n;
    value
  end
  else error cur (Printf.sprintf "expected %s" word)

(* UTF-8 encode one code point, astral plane included. *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> error cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | Some 'n' ->
            advance cur;
            Buffer.add_char buf '\n';
            go ()
        | Some 't' ->
            advance cur;
            Buffer.add_char buf '\t';
            go ()
        | Some 'r' ->
            advance cur;
            Buffer.add_char buf '\r';
            go ()
        | Some 'b' ->
            advance cur;
            Buffer.add_char buf '\b';
            go ()
        | Some 'f' ->
            advance cur;
            Buffer.add_char buf '\012';
            go ()
        | Some ('"' | '\\' | '/') ->
            Buffer.add_char buf (Option.get (peek cur));
            advance cur;
            go ()
        | Some 'u' ->
            advance cur;
            let hex4 () =
              if cur.off + 4 > String.length cur.src then error cur "bad \\u escape";
              let hex = String.sub cur.src cur.off 4 in
              cur.off <- cur.off + 4;
              match int_of_string_opt ("0x" ^ hex) with
              | Some code -> code
              | None -> error cur "bad \\u escape"
            in
            let code = hex4 () in
            let code =
              (* \uXXXX only reaches the BMP; astral code points arrive
                 as a UTF-16 surrogate pair.  Combine a high surrogate
                 with the following \u-escaped low surrogate; an
                 unpaired surrogate keeps the old lenient per-escape
                 byte encoding. *)
              if
                code >= 0xD800 && code <= 0xDBFF
                && cur.off + 2 <= String.length cur.src
                && cur.src.[cur.off] = '\\'
                && cur.src.[cur.off + 1] = 'u'
              then begin
                let save = cur.off in
                cur.off <- cur.off + 2;
                let lo = hex4 () in
                if lo >= 0xDC00 && lo <= 0xDFFF then
                  0x10000 + (((code - 0xD800) lsl 10) lor (lo - 0xDC00))
                else begin
                  (* not a low surrogate: rewind and emit separately *)
                  cur.off <- save;
                  code
                end
              end
              else code
            in
            add_utf8 buf code;
            go ()
        | _ -> error cur "bad escape")
    | Some c ->
        advance cur;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.off in
  let consume pred =
    while (match peek cur with Some c -> pred c | None -> false) do
      advance cur
    done
  in
  if peek cur = Some '-' then advance cur;
  consume (fun c -> c >= '0' && c <= '9');
  let is_float = ref false in
  if peek cur = Some '.' then begin
    is_float := true;
    advance cur;
    consume (fun c -> c >= '0' && c <= '9')
  end;
  (match peek cur with
  | Some ('e' | 'E') ->
      is_float := true;
      advance cur;
      (match peek cur with Some ('+' | '-') -> advance cur | _ -> ());
      consume (fun c -> c >= '0' && c <= '9')
  | _ -> ());
  let text = String.sub cur.src start (cur.off - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> error cur "bad number"
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> (
        match float_of_string_opt text with Some f -> Float f | None -> error cur "bad number")

let max_depth = 512

(* [depth] counts the arrays and objects open around the value. *)
let rec parse_value ~depth cur =
  skip_ws cur;
  match peek cur with
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> String (parse_string cur)
  | Some ('[' | '{') when depth >= max_depth ->
      error cur (Printf.sprintf "arrays and objects nested deeper than %d" max_depth)
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        List []
      end
      else
        let rec items acc =
          let v = parse_value ~depth:(depth + 1) cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              items (v :: acc)
          | Some ']' ->
              advance cur;
              List.rev (v :: acc)
          | _ -> error cur "expected ',' or ']'"
        in
        List (items [])
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else
        let rec fields acc =
          skip_ws cur;
          let key = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value ~depth:(depth + 1) cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              fields ((key, v) :: acc)
          | Some '}' ->
              advance cur;
              List.rev ((key, v) :: acc)
          | _ -> error cur "expected ',' or '}'"
        in
        Obj (fields [])
  | Some ('-' | '0' .. '9') -> parse_number cur
  | _ -> error cur "expected a JSON value"

let of_string src =
  let cur = { src; off = 0 } in
  match
    let v = parse_value ~depth:0 cur in
    skip_ws cur;
    if cur.off < String.length src then error cur "trailing content";
    v
  with
  | v -> Ok v
  | exception Fail (msg, off) -> Error (Printf.sprintf "at offset %d: %s" off msg)
