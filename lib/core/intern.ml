(* Hash-consing interner for the solver's abstract domains.

   Each [Node.value], [Node.view_abs], [Node.t] location, listener
   entry and holder is mapped to a dense integer id the first time it
   is seen; the interned solver engine then keys every hot structure
   (solution sets, delta sets, relation tables, the CSR flow graph) by
   those ids, replacing structural [Set.Make] operations with bitset
   words ([Util.Bitset]).

   Two tiers. An interner optionally sits on top of a frozen [shared]
   tier holding the framework resource vocabulary — the layout/view id
   windows every application draws its [R] constants from
   ([Layouts.Resource.layout_base]/[view_base]).  Frozen entries own
   the dense ids below a per-pool watermark and are immutable from
   construction, so the single process-wide tier can be read from
   every worker domain without locks; ids minted by the interner
   itself start at the watermark.  Because the frozen windows are
   contiguous integer ranges, a frozen hit is pure arithmetic (no
   hashing), and a frozen miss costs one range check before the
   private pool probe.

   Determinism contract: private ids are assigned in first-intern
   order, and the interned engine interns from deterministic sources
   only (the ordered [Graph.locations] / [Graph.ops] lists and
   solver-driven discovery, which is itself a deterministic function
   of the graph).  The frozen tier is a constant, so its ids are
   trivially stable.  Combined with the Pool's
   apps-built-inside-tasks rule (private pools are never shared
   across domains) this keeps counters and outputs byte-identical
   across runs and across [--jobs] levels. *)

module type KEY = sig
  type t

  val equal : t -> t -> bool

  val hash : t -> int

  val dummy : t
  (** fills empty table slots and unused reverse-array slots; never
      returned for a minted id *)
end

(* Two dense ids packed into one int key, [hi] in the upper bits.  Both
   must lie in [0, 2^pack_bits): a larger id would alias another pair's
   key, so it is refused instead of truncated. *)
let pack_bits = 31

let pack hi lo =
  if hi lsr pack_bits <> 0 || lo lsr pack_bits <> 0 then
    invalid_arg "Intern.pack: id past the packing bound";
  (hi lsl pack_bits) lor lo

module Pool (K : KEY) = struct
  (* Open addressing with linear probing over a power-of-two table.  A
     slot is two words: the key ([keys]) and one int ([meta]) packing
     the key's 31-bit hash above its 31-bit id, [-1] when empty.  A
     probe compares the packed hash before it calls [K.equal], so a
     probe run costs one int comparison per foreign slot; growth
     re-slots entries by their stored hashes and never calls [K.hash].
     The table grows at 3/4 load, so an empty slot always ends a probe,
     and [back] (id -> key, in first-intern order) grows with it. *)
  type t = {
    mutable keys : K.t array;
    mutable meta : int array;
    mutable back : K.t array;  (** length = the count that triggers growth *)
    mutable count : int;
    bound : int;
  }

  let hash_mask = (1 lsl pack_bits) - 1

  let create ?(id_bound = 1 lsl pack_bits) slots =
    if id_bound < 1 || id_bound > 1 lsl pack_bits then invalid_arg "Intern.Pool.create: id bound";
    if slots < 4 || slots land (slots - 1) <> 0 then invalid_arg "Intern.Pool.create: slots";
    {
      keys = Array.make slots K.dummy;
      meta = Array.make slots (-1);
      back = Array.make (slots / 4 * 3) K.dummy;
      count = 0;
      bound = id_bound;
    }

  (* The slot holding [k] (hash [h]), or the empty slot ending its
     run.  Every operand is a parameter, so a probe allocates nothing. *)
  let rec probe keys meta mask k h i =
    let m = Array.unsafe_get meta i in
    if m < 0 || (m lsr pack_bits = h && K.equal (Array.unsafe_get keys i) k) then i
    else probe keys meta mask k h ((i + 1) land mask)

  let slot t k h =
    let mask = Array.length t.meta - 1 in
    probe t.keys t.meta mask k h (h land mask)

  let grow t =
    let n = Array.length t.meta in
    let keys = Array.make (2 * n) K.dummy and meta = Array.make (2 * n) (-1) in
    let mask = (2 * n) - 1 in
    for j = 0 to n - 1 do
      let m = Array.unsafe_get t.meta j in
      if m >= 0 then begin
        let i = ref ((m lsr pack_bits) land mask) in
        while Array.unsafe_get meta !i >= 0 do
          i := (!i + 1) land mask
        done;
        Array.unsafe_set meta !i m;
        Array.unsafe_set keys !i (Array.unsafe_get t.keys j)
      end
    done;
    let back = Array.make (Array.length t.back * 2) K.dummy in
    Array.blit t.back 0 back 0 t.count;
    t.keys <- keys;
    t.meta <- meta;
    t.back <- back

  let intern t k =
    let h = K.hash k land hash_mask in
    let i = slot t k h in
    let m = Array.unsafe_get t.meta i in
    if m >= 0 then m land hash_mask
    else begin
      let id = t.count in
      if id >= t.bound then invalid_arg "Intern.Pool.intern: id bound reached";
      Array.unsafe_set t.meta i ((h lsl pack_bits) lor id);
      Array.unsafe_set t.keys i k;
      t.back.(id) <- k;
      t.count <- id + 1;
      if id + 1 = Array.length t.back then grow t;
      id
    end

  let find_opt t k =
    let h = K.hash k land hash_mask in
    let m = Array.unsafe_get t.meta (slot t k h) in
    if m >= 0 then Some (m land hash_mask) else None

  let get t id = t.back.(id)

  let count t = t.count
end

let dummy_mid = { Node.mid_cls = ""; mid_name = ""; mid_arity = 0 }

let dummy_alloc = { Node.a_site = { s_in = dummy_mid; s_stmt = 0 }; a_cls = "" }

module Value_pool = Pool (struct
  type t = Node.value

  let equal = Node.equal_value

  let hash = Node.hash_value

  let dummy = Node.V_act ""
end)

module View_pool = Pool (struct
  type t = Node.view_abs

  let equal = Node.equal_view

  let hash = Node.hash_view

  let dummy = Node.V_alloc dummy_alloc
end)

module Node_pool = Pool (struct
  type t = Node.t

  let equal = Node.equal

  let hash = Node.hash

  let dummy = Node.N_field ""
end)

module Listener_pool = Pool (struct
  type t = Node.listener_abs * string

  let equal (l1, i1) (l2, i2) = Node.equal_listener l1 l2 && String.equal i1 i2

  let hash (l, i) = Node.mix (Node.hash_listener l) (Node.hash_string i)

  let dummy = (Node.L_act "", "")
end)

module Holder_pool = Pool (struct
  type t = Node.holder

  let equal = Node.equal_holder

  let hash = Node.hash_holder

  let dummy = Node.H_act ""
end)

(* Growable id->id map, [-1] = unset. *)
type iarr = { mutable a : int array }

let iarr_create () = { a = [||] }

let iarr_get m i = if i < Array.length m.a then m.a.(i) else -1

let iarr_set m i v =
  let n = Array.length m.a in
  if i >= n then begin
    let cap = max 64 (max (i + 1) (2 * n)) in
    let a = Array.make cap (-1) in
    Array.blit m.a 0 a 0 n;
    m.a <- a
  end;
  m.a.(i) <- v

(* {2 The frozen shared tier}

   Only values and resource ids have framework-level vocabulary worth
   freezing: the [R]-constant windows are the same integers in every
   application ([Layouts.Resource] assigns them sequentially from
   fixed bases, exactly like the platform resource compiler).  Views,
   nodes, listeners and holders are keyed by application-specific
   sites (class names, allocation sites, method ids), so their
   watermarks are always zero.  Framework *class* vocabulary (the view
   hierarchy, listener interfaces) never reaches the interner as
   standalone keys — it lives in the per-graph cast table — so there
   is nothing to freeze for it here. *)

type shared = {
  sh_lbase : int;  (** first layout id covered *)
  sh_lcount : int;
  sh_vbase : int;  (** first view id covered *)
  sh_vcount : int;
  sh_values : Node.value array;
      (** value decode table: ids [0 .. lcount+vcount-1] are the two
          windows, then the two ⊤ markers *)
  sh_rids : int array;  (** rid decode table: the windows, then the ⊤ sentinel raw id *)
}

(* The two ⊤ markers are part of the framework vocabulary too: every
   application that parses [R.layout.?] / [R.id.?] interns the same
   singleton values, so they sit in the frozen tier right after the
   two windows (and the [-1] sentinel raw id joins the rid table at
   the same offset).  Window arithmetic is untouched — the markers
   live at fixed indices past both windows, so they can never collide
   with a window entry no matter the window sizes. *)
let make_shared ~layout_ids ~view_ids =
  if layout_ids < 0 || view_ids < 0 then invalid_arg "Intern.make_shared: negative window";
  let lbase = Layouts.Resource.layout_base and vbase = Layouts.Resource.view_base in
  let total = layout_ids + view_ids in
  let raw i = if i < layout_ids then lbase + i else vbase + (i - layout_ids) in
  {
    sh_lbase = lbase;
    sh_lcount = layout_ids;
    sh_vbase = vbase;
    sh_vcount = view_ids;
    sh_values =
      Array.init (total + 2) (fun i ->
          if i < layout_ids then Node.V_layout_id (raw i)
          else if i < total then Node.V_view_id (raw i)
          else if i = total then Node.V_layout_top
          else Node.V_view_id_top);
    sh_rids = Array.init (total + 1) (fun i -> if i < total then raw i else Node.top_view_id_raw);
  }

(* Sized to cover the resource tables of typical applications while
   costing at most a few bitset words of id-space slack; apps with
   bigger tables (Astrid, XBMC) spill into the private tier, which the
   watermark-boundary tests rely on. *)
let default_layout_window = 64

let default_view_window = 192

(* Built at module initialization — on the main domain, before any
   worker domain can exist — and immutable from birth, so reads need
   no synchronization. *)
let global_shared = make_shared ~layout_ids:default_layout_window ~view_ids:default_view_window

let shared_tier () = global_shared

let shared_counts sh = (Array.length sh.sh_values, Array.length sh.sh_rids)

(* Frozen lookups: the windows are contiguous, so membership is a
   range check and the frozen id is arithmetic on the raw int. *)
let shared_value_id sh (v : Node.value) =
  match v with
  | Node.V_layout_id n when n >= sh.sh_lbase && n - sh.sh_lbase < sh.sh_lcount -> n - sh.sh_lbase
  | Node.V_view_id n when n >= sh.sh_vbase && n - sh.sh_vbase < sh.sh_vcount ->
      sh.sh_lcount + (n - sh.sh_vbase)
  | Node.V_layout_top -> sh.sh_lcount + sh.sh_vcount
  | Node.V_view_id_top -> sh.sh_lcount + sh.sh_vcount + 1
  | _ -> -1

let shared_rid_sym sh raw =
  if raw >= sh.sh_lbase && raw - sh.sh_lbase < sh.sh_lcount then raw - sh.sh_lbase
  else if raw >= sh.sh_vbase && raw - sh.sh_vbase < sh.sh_vcount then
    sh.sh_lcount + (raw - sh.sh_vbase)
  else if raw = Node.top_view_id_raw then sh.sh_lcount + sh.sh_vcount
  else -1

type t = {
  shared : shared option;
  wm_values : int;  (** value ids below this decode in the frozen tier *)
  wm_rids : int;  (** rid syms below this decode in the frozen tier *)
  frozen_values : Node.value array;  (** [sh_values] of [shared], or [||] *)
  frozen_rids : int array;  (** [sh_rids] of [shared], or [||] *)
  values : Value_pool.t;
  views : View_pool.t;
  nodes : Node_pool.t;
  listeners : Listener_pool.t;
  holders : Holder_pool.t;
  value2view : iarr;  (** value id -> view id when the value is a [V_view], else -1 *)
  view2value : iarr;  (** view id -> id of its [V_view] wrapping (always set) *)
  rid_fwd : (int, int) Hashtbl.t;  (** raw resource int -> dense rid sym (watermark included) *)
  mutable rid_back : int array;  (** private tier, indexed by [sym - wm_rids] *)
  mutable rid_local : int;  (** private rid count *)
  ctx_fwd : (int, int) Hashtbl.t;
      (** context dimension: packed ⟨base node id, ctx⟩ -> id of the
          context clone of the base node.  Clones live in the ordinary
          node pool (they ARE the [$ctx]-renamed variables), so every
          decoder and solution-store read covers them with
          no extra machinery; this table only makes the second and
          later sightings of a pair an int-keyed hit instead of a
          string allocation plus a node hash. *)
  ctx_seen : (int, unit) Hashtbl.t;  (** distinct contexts that minted at least one clone *)
  mutable clone_marks : Bytes.t;
      (** node id -> ['\001'] when {!ctx_node} minted it as a renamed
          clone variable; ids past the end are unmarked *)
}

let create ?shared () =
  let wm_values, wm_rids, frozen_values, frozen_rids =
    match shared with
    | None -> (0, 0, [||], [||])
    | Some sh ->
        let vs, rs = shared_counts sh in
        (vs, rs, sh.sh_values, sh.sh_rids)
  in
  {
    shared;
    wm_values;
    wm_rids;
    frozen_values;
    frozen_rids;
    values = Value_pool.create 64;
    views = View_pool.create 64;
    nodes = Node_pool.create 256;
    listeners = Listener_pool.create 16;
    holders = Holder_pool.create 16;
    value2view = iarr_create ();
    view2value = iarr_create ();
    rid_fwd = Hashtbl.create 64;
    rid_back = Array.make 64 0;
    rid_local = 0;
    ctx_fwd = Hashtbl.create 64;
    ctx_seen = Hashtbl.create 16;
    clone_marks = Bytes.empty;
  }

let watermarks t = (t.wm_values, t.wm_rids)

(* Values and views intern each other: every view has a canonical
   [V_view] value and vice versa.  The pool entry is installed before
   recursing, so the mutual call terminates by lookup.  Frozen values
   are plain id constants, never [V_view], so the recursion only ever
   touches the private tier; cross maps are keyed by watermarked
   (global) ids.  A pool mints exactly when the id it returns is its
   previous count. *)
let rec value t (v : Node.value) =
  let fid = match t.shared with Some sh -> shared_value_id sh v | None -> -1 in
  if fid >= 0 then fid
  else
    let fresh = Value_pool.count t.values in
    let local = Value_pool.intern t.values v in
    let id = t.wm_values + local in
    (if local = fresh then match v with Node.V_view w -> iarr_set t.value2view id (view t w) | _ -> ());
    id

and view t (w : Node.view_abs) =
  let fresh = View_pool.count t.views in
  let id = View_pool.intern t.views w in
  if id = fresh then begin
    let vid = value t (Node.V_view w) in
    iarr_set t.view2value id vid;
    (* [value] found [V_view w] missing and recursed back here only
       if it minted the entry itself; either way the cross map below
       is consistent. *)
    iarr_set t.value2view vid id
  end;
  id

let node t n = Node_pool.intern t.nodes n

(* Context clones.  The id is minted by interning the actual renamed
   node ([name ^ "$" ^ ctx] — '$' cannot occur in source identifiers),
   so a clone id and the id the inlining path would assign to the same
   renamed variable are THE SAME pool entry: the naming contract
   between the two paths is the mint itself.  The ⟨base, ctx⟩ key is packed with
   {!pack}; only [N_var] bases carry contexts — fields and returns are
   shared across clones, and a non-var base decays to itself. *)
(* Every clone id below the table bound reuses one preallocated suffix
   string; a miss then costs a single concatenation. *)
let ctx_suffixes = Array.init 1024 (fun i -> "$" ^ string_of_int i)

let ctx_suffix i = if i < 1024 then Array.unsafe_get ctx_suffixes i else "$" ^ string_of_int i

let mark_clone t id =
  let n = Bytes.length t.clone_marks in
  if id >= n then begin
    let grown = Bytes.make (max 256 (max (id + 1) (2 * n))) '\000' in
    Bytes.blit t.clone_marks 0 grown 0 n;
    t.clone_marks <- grown
  end;
  Bytes.unsafe_set t.clone_marks id '\001'

let is_ctx_clone t id = id < Bytes.length t.clone_marks && Bytes.get t.clone_marks id <> '\000'

let ctx_node t ~base ~ctx =
  let key = pack base ctx in
  match Hashtbl.find_opt t.ctx_fwd key with
  | Some id -> id
  | None ->
      let id =
        match Node_pool.get t.nodes base with
        | Node.N_var (mid, name) ->
            let id = Node_pool.intern t.nodes (Node.N_var (mid, name ^ ctx_suffix ctx)) in
            mark_clone t id;
            id
        | Node.N_field _ | Node.N_ret _ -> base
      in
      Hashtbl.add t.ctx_fwd key id;
      if not (Hashtbl.mem t.ctx_seen ctx) then Hashtbl.add t.ctx_seen ctx ();
      id

(* Non-minting lookups, for demand-side callers (the query engine must
   not pollute a solved state's interner with ids the CSR has never
   seen just because a client asked about an unknown node). *)
let find_node t n = Node_pool.find_opt t.nodes n

let find_value t v =
  let fid = match t.shared with Some sh -> shared_value_id sh v | None -> -1 in
  if fid >= 0 then Some fid
  else Option.map (fun id -> t.wm_values + id) (Value_pool.find_opt t.values v)

let find_view t w = View_pool.find_opt t.views w

let find_holder t h = Holder_pool.find_opt t.holders h

let listener t entry = Listener_pool.intern t.listeners entry

let holder t h = Holder_pool.intern t.holders h

let rid t raw =
  let fsym = match t.shared with Some sh -> shared_rid_sym sh raw | None -> -1 in
  if fsym >= 0 then fsym
  else
    match Hashtbl.find_opt t.rid_fwd raw with
    | Some sym -> sym
    | None ->
        let local = t.rid_local in
        let n = Array.length t.rid_back in
        if local >= n then begin
          let back = Array.make (2 * n) 0 in
          Array.blit t.rid_back 0 back 0 n;
          t.rid_back <- back
        end;
        t.rid_back.(local) <- raw;
        let sym = t.wm_rids + local in
        Hashtbl.add t.rid_fwd raw sym;
        t.rid_local <- local + 1;
        sym

let rid_opt t raw =
  let fsym = match t.shared with Some sh -> shared_rid_sym sh raw | None -> -1 in
  if fsym >= 0 then Some fsym else Hashtbl.find_opt t.rid_fwd raw

(* Decoders.  Ids below the watermark index the frozen tables
   directly; everything else shifts down into the private pool. *)
let value_of t id =
  if id < t.wm_values then t.frozen_values.(id) else Value_pool.get t.values (id - t.wm_values)

let view_of t id = View_pool.get t.views id

let node_of t id = Node_pool.get t.nodes id

let listener_of t id = Listener_pool.get t.listeners id

let holder_of t id = Holder_pool.get t.holders id

let rid_of t sym = if sym < t.wm_rids then t.frozen_rids.(sym) else t.rid_back.(sym - t.wm_rids)

(* Cross maps. *)
let view_of_value_id t vid = iarr_get t.value2view vid

let value_of_view_id t wid = iarr_get t.view2value wid

(* Counters for [Solve.stats].  Totals span both tiers, keeping every
   [0 .. count-1] decode loop decodable. *)
let value_count t = t.wm_values + Value_pool.count t.values

let view_count t = View_pool.count t.views

let node_count t = Node_pool.count t.nodes

let listener_count t = Listener_pool.count t.listeners

let holder_count t = Holder_pool.count t.holders

let rid_count t = t.wm_rids + t.rid_local

let ctx_count t = Hashtbl.length t.ctx_seen

let ctx_key_count t = Hashtbl.length t.ctx_fwd
