(** Point queries over a captured solution.

    A {!t} is a read-only view of a {!Solve.solved}: every answer is a
    {!Reader} read of the captured graph, whose store holds the
    captured rows, so answers equal [Analysis]'s forward projections
    of the same state.  Points-to rows are decoded per call: a handle
    never builds the batch read index.

    A query handle never mutates the solved state and never grows its
    interner (unknown keys use non-minting lookups), so handles over
    the same state are safe to interleave with reads; re-solving the
    app requires a fresh handle. *)

type t

type stats = {
  mutable q_queries : int;  (** point queries answered *)
  mutable q_memo_hits : int;
  mutable q_expanded : int;
  mutable q_generator_hits : int;
  mutable q_budget_fallbacks : int;
}
(** Only [q_queries] counts anything.  The other four fields always
    read 0: they counted a backward walk that points-to reads no
    longer run, and they remain so that the benchmark harness that
    reports them still builds. *)

val create : hierarchy:Jir.Hierarchy.t -> Solve.solved -> t
(** [hierarchy] is unused; the label stays for existing callers. *)

val stats : t -> stats
(** Cumulative counters since {!create}. *)

val interner : t -> Intern.t

val points_to : ?budget:int -> t -> Node.t -> Node.value list option
(** {!Reader.find_points_to}: values reaching the location, sorted by
    {!Node.compare_value}; [None] when the node was never interned
    (unknown to this app's graph — the protocol maps it to an
    [unknown-node] error).  [budget] has no effect; it stays for
    existing callers. *)

val views_of_listener : t -> Node.listener_abs -> Node.view_abs list
(** {!Reader.views_with_listener}: views the listener is registered on
    (any interface), sorted by {!Node.compare_view} — the inverse of
    [Analysis.listeners_of_view]. *)

val activities_of_id : t -> string -> string list
(** Activity classes whose displayable views ({!Graph.holder_views})
    contain a view carrying the named id ({!Reader.id_carriers}, which
    [Analysis.views_with_id] reads too), sorted.  Views whose id came
    from [SetId (v, ⊤)] carry the unknown-id sentinel and match every
    queried name, declared or not; without such views an undeclared
    name answers the empty list. *)
