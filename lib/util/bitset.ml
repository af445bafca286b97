(* Growable bit sets over dense integer ids.

   The interned solver engine stores solution sets, delta sets and
   relationship tables as bitsets keyed by interner ids, so the hot
   operations here are word-level: [union_delta] merges a source set
   into a destination while visiting exactly the newly-set bits, and
   [iter] walks members by repeatedly extracting the lowest set bit.

   Words are OCaml native ints ([Sys.int_size] usable bits, 63 on
   64-bit systems).  Cardinality uses a Kernighan popcount loop: the
   usual SWAR constants (0x5555...) do not fit in a 63-bit int. *)

type t = { mutable words : int array }

let bits_per_word = Sys.int_size

let create () = { words = [||] }

let ensure t word_idx =
  let n = Array.length t.words in
  if word_idx >= n then begin
    let cap = max 4 (max (word_idx + 1) (2 * n)) in
    let words = Array.make cap 0 in
    Array.blit t.words 0 words 0 n;
    t.words <- words
  end

let mem t i =
  let w = i / bits_per_word in
  w < Array.length t.words
  && t.words.(w) land (1 lsl (i mod bits_per_word)) <> 0

(* Returns [true] when [i] was not already present. *)
let add t i =
  let w = i / bits_per_word in
  ensure t w;
  let bit = 1 lsl (i mod bits_per_word) in
  let old = t.words.(w) in
  if old land bit = 0 then begin
    t.words.(w) <- old lor bit;
    true
  end
  else false

let remove t i =
  let w = i / bits_per_word in
  if w < Array.length t.words then
    t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let is_empty t =
  let n = Array.length t.words in
  let rec go i = i >= n || (t.words.(i) = 0 && go (i + 1)) in
  go 0

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let copy t = { words = Array.copy t.words }

(* Overwrite [dst]'s contents with a copy of [src]'s — the bulk
   counterpart of clearing and re-adding every member. *)
let assign dst src = dst.words <- Array.copy src.words

(* Number of trailing zeros of a one-bit word (a power of two). *)
let ntz_pow2 b =
  let n = ref 0 in
  let b = ref b in
  if !b land 0xFFFFFFFF = 0 then begin
    n := !n + 32;
    b := !b lsr 32
  end;
  if !b land 0xFFFF = 0 then begin
    n := !n + 16;
    b := !b lsr 16
  end;
  if !b land 0xFF = 0 then begin
    n := !n + 8;
    b := !b lsr 8
  end;
  if !b land 0xF = 0 then begin
    n := !n + 4;
    b := !b lsr 4
  end;
  if !b land 0x3 = 0 then begin
    n := !n + 2;
    b := !b lsr 2
  end;
  if !b land 0x1 = 0 then n := !n + 1;
  !n

let iter_word f base w =
  let w = ref w in
  while !w <> 0 do
    let bit = !w land - !w in
    f (base + ntz_pow2 bit);
    w := !w lxor bit
  done

let iter f t =
  for i = 0 to Array.length t.words - 1 do
    let w = t.words.(i) in
    if w <> 0 then iter_word f (i * bits_per_word) w
  done

let iter_with f x t =
  for i = 0 to Array.length t.words - 1 do
    let w = ref t.words.(i) in
    while !w <> 0 do
      let bit = !w land - !w in
      f x ((i * bits_per_word) + ntz_pow2 bit);
      w := !w lxor bit
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let cardinal t =
  let c = ref 0 in
  for i = 0 to Array.length t.words - 1 do
    let w = ref t.words.(i) in
    while !w <> 0 do
      incr c;
      w := !w land (!w - 1)
    done
  done;
  !c

(* Merge [src] into [into]; call [on_new] for each element newly added
   to [into].  This is the semi-naive propagation primitive: only the
   genuinely fresh bits are visited. *)
let union_delta ~into src ~on_new =
  let n = Array.length src.words in
  if n > 0 then ensure into (n - 1);
  for i = 0 to n - 1 do
    let sw = src.words.(i) in
    if sw <> 0 then begin
      let nw = sw land lnot into.words.(i) in
      if nw <> 0 then begin
        into.words.(i) <- into.words.(i) lor sw;
        iter_word on_new (i * bits_per_word) nw
      end
    end
  done

(* Merge [a ∩ b] into [into], calling [on_new] for each element newly
   added: [union_delta] restricted to [b], for a plane that must stay
   inside another (the solver's taint rows inside points-to). *)
let inter_delta ~into a b ~on_new =
  let n = min (Array.length a.words) (Array.length b.words) in
  if n > 0 then ensure into (n - 1);
  for i = 0 to n - 1 do
    let nw = a.words.(i) land b.words.(i) land lnot into.words.(i) in
    if nw <> 0 then begin
      into.words.(i) <- into.words.(i) lor nw;
      iter_word on_new (i * bits_per_word) nw
    end
  done

(* Is every member of [a] already in [b]?  Word-level; the warm
   (incremental) solver uses this as its would-grow test before
   copying a borrowed solution set. *)
let subset a b =
  let na = Array.length a.words and nb = Array.length b.words in
  let rec go i =
    i >= na
    || a.words.(i) land lnot (if i < nb then b.words.(i) else 0) = 0
       && go (i + 1)
  in
  go 0

let intersects a b =
  let n = min (Array.length a.words) (Array.length b.words) in
  let rec go i = i < n && (a.words.(i) land b.words.(i) <> 0 || go (i + 1)) in
  go 0

let equal a b =
  let na = Array.length a.words and nb = Array.length b.words in
  let n = max na nb in
  let rec go i =
    i >= n
    || (if i < na then a.words.(i) else 0) = (if i < nb then b.words.(i) else 0)
       && go (i + 1)
  in
  go 0

(* Allocated words (capacity), for memory-pressure stats. *)
let words t = Array.length t.words

(* Physical identity.  The SCC-condensed solver keys one mutable set
   per flow-cycle component and lets every member node alias it;
   [same] is the aliasing test (structural [equal] cannot distinguish
   a shared set from an equal copy, and a copy would not see later
   unions). *)
let same a b = a == b
