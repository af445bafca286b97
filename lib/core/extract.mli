(** Construction of the constraint graph from an application
    (the first phase of Section 4.3).

    Every application method is considered executable; polymorphic
    calls are resolved with CHA over static receiver types
    ({!Jir.Typing} supplies them); calls that reach the platform are
    recognized as operation nodes via {!Framework.Api.classify};
    platform callbacks are modeled by seeding activity values into the
    [this] of lifecycle callbacks. *)

val run : ?interner:Intern.t -> Config.t -> Framework.App.t -> Graph.t
(** Build the (unsolved) constraint graph: locations, flow edges,
    operation nodes, allocation sites, and initial-value seeds.
    [?interner] pre-seeds the id pools so an incremental re-extraction
    keeps ids stable with the previous solve.  At [inline_depth > 0]
    clone bodies are expanded in id space ({!Intern.ctx_node}). *)

val run_inlined : ?interner:Intern.t -> Config.t -> Framework.App.t -> Graph.t
(** {!run} with clone bodies inlined as [$n]-renamed program text
    instead: the extraction of the rule-table reference
    ({!Analysis.reference}), bit-identical in solution to {!run}'s at
    every depth. *)

val reextract :
  Config.t -> Framework.App.t -> prev:Graph.t -> (Graph.t * bool array, string) result
(** Warm assembly at inline depth 0: a graph for [app] over [prev]'s
    interner that replays the fragments ({!Graph.fragments}) of each
    run of methods whose records are unchanged since [prev]'s
    extraction in one {!Graph.replay}, re-extracts the edited ones in
    place, then replays the global seed passes' slice (the dialog
    pass checks only the edited methods' new allocation sites).  The
    logs, and so every derived table, come out as
    {!run} [~interner] would build them.  Returns the graph with, per
    method in program order, whether it was re-extracted.  Declines
    with a reason when [prev] has no fragments; when a class's name,
    kind or supertypes, or a method's name or parameter names, differ
    from [prev]'s program position by position (what the class and
    method fingerprints cover); when a field declaration or a return
    type changed; when an edited class defines two methods with one
    key; when the resource tables grew since [prev]'s
    extraction (through this re-extraction or anything else sharing
    the layout package); or when an unknown-id marker is present.
    [config] must be the one [prev] was extracted under. *)

val typing_envs : Framework.App.t -> (Node.mid * Jir.Typing.env) list
(** Every method's typing environment as extraction builds it: call
    return types resolve through one CHA memo shared by all methods of
    the app.  Class and method order.  Equal, method by method, to
    {!Framework.App.typing_env}, which resolves every call afresh; the
    typing differential holds the two together. *)
