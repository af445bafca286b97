(** Hash-consing interner for the solver's abstract domains.

    Each {!Node.value}, {!Node.view_abs}, {!Node.t} location, listener
    entry and holder is mapped to a dense integer id the first time it
    is seen; the interned solver engine then keys every hot structure
    (solution sets, delta sets, relation tables, the CSR flow graph) by
    those ids, replacing structural [Set.Make] operations with bitset
    words ({!Util.Bitset}).

    {b Two tiers.} An interner optionally sits on top of a frozen
    {!shared} tier holding the framework resource vocabulary — the
    layout/view id windows every application's [R] constants are drawn
    from.  Frozen entries own the ids below a per-pool watermark and
    are immutable from construction, so one process-wide tier
    ({!shared_tier}) is read lock-free by every worker domain; ids the
    interner mints itself start at the watermark.  Analysis results
    are bit-identical whether a symbol resolves in the shared or the
    private tier (the watermark only relabels ids, and everything
    observable is decoded structurally); the differential
    batteries in [test/test_shared_intern.ml] pin this.  Every fresh
    extraction ([Extract.run] without [?interner]) sits on
    {!shared_tier}; a fully private interner ([create ()]) exists for
    those batteries.

    Determinism contract: private ids are assigned in first-intern
    order, and the interned engine interns from deterministic sources
    only (the ordered [Graph.locations] / [Graph.ops] lists and
    solver-driven discovery, which is itself a deterministic function
    of the graph).  The frozen tier is a constant.  Combined with the
    Pool's apps-built-inside-tasks rule (private pools are never
    shared across domains) this keeps counters and outputs
    byte-identical across runs and across [--jobs] levels. *)

type t

(** {1 The id pool}

    One open-addressed table per key domain (values, views, nodes,
    listeners, holders).  Exposed for the differential tests against a
    reference interner; analysis code goes through the functions
    below. *)

module type KEY = sig
  type t

  val equal : t -> t -> bool

  val hash : t -> int

  val dummy : t
  (** fills unused slots of the id -> key array; never returned for a
      minted id *)
end

module Pool (K : KEY) : sig
  type t

  val create : ?id_bound:int -> int -> t
  (** [create slots] starts with a table of [slots] slots (a power of
      two, at least 4); it doubles at 3/4 load.  Ids are dense, from 0,
      in first-intern order.  [?id_bound] (default and maximum [2^31])
      is the first id the pool refuses; a smaller bound lets a test
      reach the refusal.
      @raise Invalid_argument on a bad size or bound. *)

  val intern : t -> K.t -> int
  (** The key's id, minting the next one on first sight.  Hashes the
      key once.
      @raise Invalid_argument when the next id would reach the bound. *)

  val find_opt : t -> K.t -> int option
  (** The key's id if already minted; never mints. *)

  val get : t -> int -> K.t
  (** The key of a minted id. *)

  val count : t -> int
  (** Ids minted so far. *)
end

(** {1 The frozen shared tier} *)

type shared
(** A frozen vocabulary tier: the contiguous layout-id and view-id
    windows starting at {!Layouts.Resource.layout_base} /
    [view_base], exposed both as value ids and as rid symbols, plus
    the two ⊤ markers ([V_layout_top], [V_view_id_top]) and the
    [Node.top_view_id_raw] rid sentinel at fixed indices past the
    windows.  Immutable after construction — there is no code path
    that writes it — hence safe to share across domains without
    locks. *)

val shared_tier : unit -> shared
(** The process-wide tier, built once at module initialization (on
    the main domain, before any worker domain can exist). *)

val default_layout_window : int
(** Layout ids covered by {!shared_tier}, counted from
    [Layouts.Resource.layout_base]. *)

val default_view_window : int
(** View ids covered by {!shared_tier}, counted from
    [Layouts.Resource.view_base].  Corpus apps with more view ids
    (e.g. Astrid's 230) overflow into their private pools — the
    watermark crossing the differential tests pin down. *)

val make_shared : layout_ids:int -> view_ids:int -> shared
(** A custom tier covering the first [layout_ids] layout ids and
    [view_ids] view ids; for tests (watermark-boundary cases).
    @raise Invalid_argument on negative window sizes. *)

val shared_counts : shared -> int * int
(** [(frozen value count, frozen rid count)] — the watermarks an
    interner created over this tier starts minting at.  Constant for
    a given tier; the no-write CI check pins it across a run. *)

val create : ?shared:shared -> unit -> t
(** A fresh interner; with [?shared], its private pools mint above
    the tier's watermarks and lookups hit the frozen windows first. *)

val watermarks : t -> int * int
(** [(value watermark, rid watermark)]; [(0, 0)] without a shared
    tier.  Ids below a watermark decode in the frozen tier. *)

(** {1 Interning (minting)}

    Each call returns the dense id for the key, assigning the next id
    on first sight — except keys covered by the frozen tier, which
    resolve by arithmetic and never grow any pool.  Values and views
    intern each other: interning a view also interns its canonical
    [V_view] wrapping and vice versa, keeping the
    {!view_of_value_id}/{!value_of_view_id} cross maps total. *)

val value : t -> Node.value -> int

val view : t -> Node.view_abs -> int

val node : t -> Node.t -> int

val ctx_node : t -> base:int -> ctx:int -> int
(** The context clone of node [base] under context [ctx] (a clone
    number > 0): the id of the [N_var (mid, name ^ "$" ^ ctx)] node the
    inlining path would have interned for the same clone.  Clones live
    in the ordinary node pool — decoders and solution reads need no
    special handling — and repeat sightings of a ⟨base, ctx⟩
    pair resolve through a packed int-keyed cache with no string
    allocation.  Non-[N_var] bases (fields, returns) are
    context-insensitive and decay to [base]; every other result is
    marked as a clone ({!is_ctx_clone}). *)

val is_ctx_clone : t -> int -> bool
(** Was node id minted by {!ctx_node} as a renamed clone variable?
    Decayed keys (fields, returns) are not clones.  Only extraction
    mints these, so a clone is only ever written through its static
    flow edges, seeds, or op outputs — never by handler injection or
    the declarative passes, which target structural base nodes — and
    the solver may substitute single-pred clones away. *)

val pack_bits : int
(** Width of each half of a {!pack}ed key (31). *)

val pack : int -> int -> int
(** [pack hi lo] is one int key for a pair of dense ids, the way
    {!ctx_node} keys its cache and the graph keys its edge dedup.
    @raise Invalid_argument when either id is negative or not below
    [2^31]: such a key would collide with another pair's. *)

val listener : t -> Node.listener_abs * string -> int
(** Listener entries are keyed by (abstraction, interface name). *)

val holder : t -> Node.holder -> int

val rid : t -> int -> int
(** Raw resource int -> dense rid symbol. *)

(** {1 Non-minting lookups}

    Demand-side callers (the query engine, protocol parsers) must not
    grow a solved state's interner just because a client named an
    unknown key. *)

val find_node : t -> Node.t -> int option

val find_value : t -> Node.value -> int option

val find_view : t -> Node.view_abs -> int option

val find_holder : t -> Node.holder -> int option

val rid_opt : t -> int -> int option

(** {1 Decoders}

    Partial inverses of the interning functions; ids must have been
    minted by this interner or lie below its watermarks. *)

val value_of : t -> int -> Node.value

val view_of : t -> int -> Node.view_abs

val node_of : t -> int -> Node.t

val listener_of : t -> int -> Node.listener_abs * string

val holder_of : t -> int -> Node.holder

val rid_of : t -> int -> int

(** {1 Cross maps} *)

val view_of_value_id : t -> int -> int
(** Value id -> view id when the value is a [V_view], else [-1]
    (frozen values are id constants, never views). *)

val value_of_view_id : t -> int -> int
(** View id -> id of its [V_view] wrapping (always set). *)

(** {1 Counters} (for {!Solve.stats})

    Totals span both tiers: [value_count] counts the frozen window
    plus private mints, so [0 .. count-1] enumeration loops stay
    decodable. *)

val value_count : t -> int

val view_count : t -> int

val node_count : t -> int

val listener_count : t -> int

val holder_count : t -> int

val rid_count : t -> int

val ctx_count : t -> int
(** Distinct contexts (clone numbers) that minted at least one context
    clone via {!ctx_node}. *)

val ctx_key_count : t -> int
(** Distinct ⟨node, ctx⟩ keys interned via {!ctx_node}. *)
