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
    keeps ids stable with the previous solve. *)

val typing_envs : Framework.App.t -> (Node.mid * Jir.Typing.env) list
(** Every method's typing environment as extraction builds it: call
    return types resolve through one CHA memo shared by all methods of
    the app.  Class and method order.  Equal, method by method, to
    {!Framework.App.typing_env}, which resolves every call afresh; the
    typing differential holds the two together. *)

val inline_body_limit : int
(** Bound on the body size (statement count) of callees eligible for
    context-sensitive separation at [inline_depth > 0]; larger callees
    share their locals context-insensitively. *)
