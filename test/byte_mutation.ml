(* Byte-level mutations shared by the hostile-input fuzzers.  Each
   step applies one of: replace a byte with a random one, insert a
   fragment, delete up to 16 bytes, truncate, duplicate a span of up to
   64 bytes elsewhere, or replace a byte with a fragment.  [fragments]
   steers the mutants toward one reader's edges. *)

let random_byte rng = Char.chr (Util.Prng.int rng 256)

let mutate ~fragments rng src =
  let n = String.length src in
  let at () = Util.Prng.int rng (n + 1) in
  let splice i drop piece =
    let drop = min drop (n - i) in
    String.sub src 0 i ^ piece ^ String.sub src (i + drop) (n - i - drop)
  in
  match Util.Prng.int rng 6 with
  | 0 when n > 0 -> splice (Util.Prng.int rng n) 1 (String.make 1 (random_byte rng))
  | 1 -> splice (at ()) 0 fragments.(Util.Prng.int rng (Array.length fragments))
  | 2 -> splice (at ()) (1 + Util.Prng.int rng 16) ""
  | 3 -> String.sub src 0 (at ())
  | 4 ->
      let i = at () in
      let len = min (Util.Prng.int rng 64) (n - i) in
      splice (at ()) 0 (String.sub src i len)
  | _ -> splice (at ()) 1 fragments.(Util.Prng.int rng (Array.length fragments))
