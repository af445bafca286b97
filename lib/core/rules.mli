(** The Section 4.2 inference rules as one table of named entries —
    INFLATE1/2, ADDVIEW1/2, SETID, SETLISTENER and its handler
    callbacks, FINDVIEW1/2/3, plus the extensions of DESIGN §5 and the
    ⊤ rules of DESIGN §15 — then sound mode's imprecision taint as a
    second stratum, and the reference engine that interprets both
    (reached through {!Analysis.reference}).  The interned engine ({!Solve}) stages the same
    entries into closures over its id rows, so the tables are the one
    statement of the rules; the premise and clause order is the
    interned engine's evaluation order and does not change what the
    reference derives. *)

(** {1 The rule language} *)

type var = string
(** A bound term; a premise over a bound variable tests it, ["_"] only
    asks that some match exists. *)

(** The op's locations, those of a method bound by [Callback], and
    the location an [Anywhere] entry is applied at. *)
type loc =
  | Recv | Arg of int | Out | This of var | Param of var * int | View_param of var | Item_param of var
  | Ret of var
  | Here

(** The values a premise binds at a location: [Obj c] non-view objects
    of a subclass of [c]; [Listener i] objects implementing [i] (a
    custom view as its allocated object); [Id_query] view ids and ⊤. *)
type sort =
  | Any | View | Layout_id | View_id | Id_query | Is of Node.value | Activity | Obj of string | Menu
  | Listener of string

(** Parent-child, view=>id, holder=>root; read either way. *)
type rel = Child | Id | Root

(** Methods by name, a listener interface's handlers, or the
    [android:onClick] names a view carries. *)
type callee = Named of (string * int) | Handlers of Framework.Listeners.iface | Onclick of var

type premise =
  | Gate of (Config.t -> bool)
  | In of loc * sort * var
  | Rel of rel * var * var
  | Desc of bool * var * var  (** [Desc (reflexive, a, d)]: [d] lies under [a] (or is [a]) *)
  | Const of var * Node.value
  | Unlike of var * Node.value  (** the bound term is not this constant *)
  | Layout of var  (** every layout id of the package *)
  | Inflate of var * var  (** the root of the layout inflated at the op's site *)
  | Callback of var * callee * var  (** a method the term's class resolves *)
  | Declared of var * var  (** a [<fragment>] placeholder and its fragment *)
  | Onclick_view of var  (** an inflated view with an [android:onClick] handler *)
  | Item of var  (** the MenuItem minted at the op's site *)
  | Owner of var * var  (** the activity of an options menu *)
  | Tainted of loc * sort * var  (** like [In], over the location's taint *)
  | Inflated of var * var  (** a view of the subtree inflated for layout [l] at the op's site, if any *)
  | Tainted_view of var  (** a view of the tainted-view set *)
  | Any_of of clause list

and clause = { name : string; ix : int; premises : premise list }

type conclusion =
  | Flow of loc * var
  | Add of rel * var * var
  | Listen of var * var * string  (** a registration under the named interface *)
  | Taint of loc * var  (** taint the value at the location, when its points-to set holds it *)
  | Taint_view of var  (** put the view in the tainted-view set *)

type entry = { rule : clause; on : on; conclusions : conclusion list }

(** [Round]: once per round, after the ops; [Anywhere] (taint entries
    only): at every location, after the ops. *)
and on = Op of (Framework.Api.kind -> bool) | Round | Anywhere

val entries_on : Framework.Api.kind -> entry list
(** The [Op] entries that fire on the kind, in table order. *)

val taint_entries_on : Framework.Api.kind -> entry list
(** Likewise for the taint stratum (DESIGN §15): entries evaluated once
    points-to has reached its fixpoint, when the graph holds an
    unknown-id marker.  Taint also flows along every flow edge,
    cast-filtered, as part of each engine's propagation. *)

val round_entries : entry list
(** The [Round] entries, in table order. *)

val anywhere_entries : entry list
(** The taint stratum's [Anywhere] entries, in table order. *)

val passes_cast : Jir.Hierarchy.t -> string -> Node.value -> bool
(** Can a value pass through a cast to the class?  Sound filtering:
    the abstract object's class is exact; unknown classes pass. *)

val names : string list
(** Every entry and named premise clause of both tables, once each. *)

type footprint = {
  reads : rel list;  (** relations a [Rel] or [Desc] premise reads *)
  writes : rel list;  (** relations an [Add] conclusion or an [Inflate] premise writes *)
  listens : bool;  (** registers listeners ([Listen]) *)
  resolves : bool;  (** resolves a method ([Callback]) *)
}

val footprint : Framework.Api.kind -> footprint
(** What an op kind's entries read and write, read off the table. *)

type run = {
  iterations : int;  (** rounds until nothing grew *)
  propagations : int;  (** worklist pops *)
  op_applications : int;  (** [iterations * |ops|] *)
}

val run : Config.t -> Framework.App.t -> Graph.t -> run
(** Solve to a fixpoint (or [Config.max_iterations] rounds, with a
    warning), then, when the graph holds a marker, derive taint from
    the taint stratum's entries in full rounds until one adds nothing, and install
    the solution with its taint rows in the graph's store.  The
    counters count the points-to stratum only. *)

val step : Config.t -> Framework.App.t -> Graph.t -> string list * (string * int) list
(** Apply one round of the table (every op's entries, the
    once-per-round entries, propagation over every frozen flow edge),
    then, when the graph holds a marker, one round of the taint
    stratum, to the solution installed in the graph (taint rows
    included), whichever engine solved it.  The tainted-view set is
    re-derived in the round, not loaded, and its growth is not
    reported.  Returns each fact the round adds, described and named by its
    entry — none iff the solution is closed under the rules — and, per
    name in {!names}, how many bindings satisfied its premises.  The
    additions stay in the step's own tables.  An inflation's subtree edges
    are taken as given: the graph hands them out only once per site
    and layout. *)
