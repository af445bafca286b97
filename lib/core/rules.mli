(** The Section 4.2 inference rules as one table of named entries —
    INFLATE1/2, ADDVIEW1/2, SETID, SETLISTENER and its handler
    callbacks, FINDVIEW1/2/3, plus the extensions of DESIGN §5 and the
    ⊤ rules of DESIGN §15 — and the reference engine that interprets
    it ([Config.Naive]).  The interned engine ({!Solve}) implements the
    same rules by hand; the differential tests compare the two. *)

val passes_cast : Jir.Hierarchy.t -> string -> Node.value -> bool
(** Can a value pass through a cast to the class?  Sound filtering:
    the abstract object's class is exact; unknown classes pass. *)

val names : string list
(** Every entry and named premise clause of the table, once each. *)

type run = {
  iterations : int;  (** rounds until nothing grew *)
  propagations : int;  (** worklist pops *)
  op_applications : int;  (** [iterations * |ops|] *)
}

val run : Config.t -> Framework.App.t -> Graph.t -> run
(** Solve to a fixpoint (or [Config.max_iterations] rounds, with a
    warning) and install the solution in the graph's store. *)

val step : Config.t -> Framework.App.t -> Graph.t -> string list * (string * int) list
(** Apply one round of the table (every op's entries, the
    once-per-round entries, propagation over every frozen flow edge)
    to the solution installed in the graph, whichever engine solved
    it.  Returns each fact the round adds, described and named by its
    entry — none iff the solution is closed under the rules — and, per
    name in {!names}, how many bindings satisfied its premises.  The
    additions stay in the step's own tables.  An inflation's subtree edges
    are taken as given: the graph hands them out only once per site
    and layout. *)
