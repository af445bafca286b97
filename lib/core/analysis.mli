(** The analysis entry point and queries over the computed solution.

    This is the primary public API: run {!analyze} on an
    {!Framework.App.t}, then ask where views flow, which views carry
    which ids, which listeners handle events on which views, and the
    (activity, view, event, handler) interaction tuples that Section 6
    of the paper describes as input to testing and security tools. *)

type t = private {
  app : Framework.App.t;
  config : Config.t;
  graph : Graph.t;
  stats : Solve.stats;
  solve_seconds : float;
      (** Wall-clock time of extraction plus solving: the time column of
          Table 2 ({!Metrics.table2_row}).  Building the app (parsing,
          hierarchy) and computing metrics fall outside it. *)
}

val analyze : ?config:Config.t -> Framework.App.t -> t

val reference : ?interner:Intern.t -> ?config:Config.t -> Framework.App.t -> t
(** The reference {!analyze} is checked against: the same
    configuration, extracted with clone bodies inlined as program text
    ({!Extract.run_inlined}) and solved by interpreting the rule table
    ({!Rules.run}).  Its solution is {!analyze}'s at every
    configuration; its [stats] count only the table's rounds,
    propagations and op applications, every other counter reads [0].
    [?interner] replaces the fresh interner over the shared tier, as
    {!Extract.run}'s does. *)

val make :
  app:Framework.App.t ->
  config:Config.t ->
  graph:Graph.t ->
  stats:Solve.stats ->
  solve_seconds:float ->
  t
(** Wrap an already-solved graph (the incremental driver solves
    through {!Solve.run_solved}/{!Solve.run_incremental} itself). *)

(** {1 Location lookup} *)

val var : cls:string -> meth:string -> arity:int -> string -> Node.t

val values_at : t -> Node.t -> Node.value list

val views_at : t -> Node.t -> Node.view_abs list

val flows_to : t -> Node.value -> Node.t -> bool
(** The paper's [flowsTo] relation, restricted to locations. *)

(** {1 Operation-node solutions (the measurements of Table 2)} *)

val ops : t -> Graph.op list

val ops_of_kind : t -> (Framework.Api.kind -> bool) -> Graph.op list

val op_receiver_views : t -> Graph.op -> Node.view_abs list

val op_child_views : t -> Graph.op -> Node.view_abs list
(** Views reaching the first argument (AddView's child,
    SetContent's view). *)

val op_result_views : t -> Graph.op -> Node.view_abs list
(** Views flowing out of the operation (only for ops with an lhs). *)

val op_listeners : t -> Graph.op -> Node.listener_abs list
(** Listeners reaching a SetListener operation's argument. *)

(** {1 Structural queries} *)

val views_with_id : t -> string -> Node.view_abs list
(** All abstract views whose id row holds the named view id (inflated
    views, views given the id by [setId], menu items), including views
    whose id came from [SetId (v, ⊤)] (their concrete id is unknown, so
    they match every name); sorted by {!Node.compare_view}. *)

val pollution : t -> int * int
(** [(polluted, nonempty)]: of the location nodes with a non-empty
    solution set, how many carry at least one value matched via an
    unknown-information marker (the [imprecise] taint of sound mode).
    [(0, n)] whenever the app has no ⊤ markers — the precision column
    of [experiments precision] divides the pair. *)

val roots_of_activity : t -> string -> Node.view_abs list

val views_of_holder : t -> Node.holder -> Node.view_abs list
(** Roots plus all their descendants ({!Graph.holder_views}): the GUI
    content the activity or dialog can display, sorted by
    {!Node.compare_view}. *)

val listeners_of_view : t -> Node.view_abs -> (Node.listener_abs * string) list
(** Registrations with the interface name. *)

(** {1 Interaction model (Section 6)} *)

type interaction = {
  ix_activity : string;
      (** the content holder's class: an activity, or (extension) a
          dialog class *)
  ix_view : Node.view_abs;
  ix_event : Framework.Listeners.event;
  ix_listener : Node.listener_abs;
  ix_handler : Node.mid;  (** the application method handling the event *)
}

val interactions : t -> interaction list
(** All (holder, view, event, handler) tuples: for each activity (and,
    extension, each dialog), the views it can display, their registered
    listeners, and the resolved handler methods. *)

val transitions : t -> (string * string) list
(** Activity-transition edges (source activity, launched activity
    class) — the model SCanDroid/A3E-style tools consume (Section 6 of
    the paper), sorted.  Extension: read from the solved sets at each
    [startActivity] op — the activities at its receiver, paired with
    the activities and activity-class objects at its intent
    argument. *)

val pp_interaction : interaction Fmt.t

val pp_summary : t Fmt.t
(** Human-readable solution overview. *)
