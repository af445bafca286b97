(** Incremental re-analysis driver (the tentpole workflow):

    {[
      let result, solved = Incremental.analyze_solved app in
      (* ... the app is patched ... *)
      let result', solved' = Incremental.analyze_incremental ~prev:solved app' in
    ]}

    The warm result is bit-identical to a from-scratch analysis of the
    patched app; [result'.stats] reports [warm_solve], [dirty_comps],
    [reused_comps] and, when the warm guard refused, [fallback].

    Caveat: a {!Solve.solved} aliases live solver state, and warm
    chains sharing an interner must run single-threaded (the interner
    is not safe against concurrent minting). *)

val analyze_solved : ?config:Config.t -> Framework.App.t -> Analysis.t * Solve.solved
(** Full analysis that also captures the solution for later warm
    restarts. *)

val analyze_incremental :
  ?config:Config.t -> prev:Solve.solved -> Framework.App.t -> Analysis.t * Solve.solved
(** Re-analyze a patched app warm: build the patched graph over
    [prev]'s interner and its edit script against [prev]'s shape
    ({!assemble}; when it declines, a full [Extract.run ~interner] and
    {!Diff.edit_script}), then re-solve only the dirty components.
    Falls back to a full solve (with [stats.fallback] set) when [prev]
    is unusable for the given app and configuration. *)

(** {1 Edit-proportional assembly}

    At inline depth 0, the graph of a patched app differs from the
    previous one only in the edited methods' fragments (their slices
    of the extraction logs, {!Graph.fragments}) and in the global seed
    passes.  {!assemble} replays every unedited method's fragment from
    [prev]'s graph, re-extracts only the edited methods
    ({!Extract.reextract}), and freezes the result from [prev]'s
    frozen flow ({!Graph.freeze_delta}).  The replay shares [prev]'s
    edge ranges and blits its small seed, allocation and op ranges;
    the global seed passes replay too, with only the edited methods'
    new allocation sites checked for dialogs.  The work left
    proportional to the app is a walk of the class and method lists
    (the reuse guard, the hierarchy swap and the key comparison that
    stands in for the fingerprints), one scan of the edge log for the
    edited sources' rows, and the new CSR and condensed arrays
    (blitted around the changed rows).  The edit script comes from the
    same work ({!Diff.delta_edit_script}); a full freeze leaves it to
    {!Diff.edit_script}, and [a_script] says which and why.

    It declines, and the caller re-extracts in full, when: the
    configuration changed; the inline depth is positive; [prev] or
    the patched graph holds an unknown-id marker; a class or a
    method's name or parameters changed (the class and method
    fingerprints; compared position by position, without hashing);
    a field declaration or a method's return type changed; an edited
    class defines two methods with one key; the layout
    package is another object; or the resource tables grew since
    [prev]'s extraction, through the re-extraction or anything else
    sharing the package (an unedited method's integer constant could
    now name a resource). *)

(** Where an assembly's edit script came from. *)
type script_source =
  | From_delta  (** derived from the assembly's own work ({!Diff.delta_edit_script}) *)
  | From_diff of string  (** a full {!Diff.edit_script}, for this reason *)

type assembly = {
  a_graph : Graph.t;  (** the patched app's graph, over [prev]'s interner *)
  a_reextracted : int;  (** methods re-extracted *)
  a_methods : int;  (** methods in the app *)
  a_freeze : Graph.freeze_report;
      (** how its flow was frozen ({!Graph.freeze_delta}): the delta
          path taken and the condensed rows it rebuilt, or the reason
          it froze in full (also logged at info level) *)
  a_shape : Solve.shape;  (** [a_graph]'s shape *)
  a_edits : Solve.edit_script;  (** from [prev]'s shape to [a_shape] *)
  a_script : script_source;
}

val assemble : ?config:Config.t -> prev:Solve.solved -> Framework.App.t -> (assembly, string) result
(** The edit-proportional graph for a warm re-solve of the patched
    [app] with its edit script, or the reason it declined. *)

val analyze_patch :
  ?config:Config.t ->
  prev:Solve.solved ->
  Framework.App.t ->
  Analysis.t * Solve.solved * (assembly, string) result
(** {!analyze_incremental}, also returning the assembly it solved
    over, or the reason the assembly declined. *)

val route_fields : ?fallback:string -> (assembly, string) result -> (string * string) list
(** How a warm patch was built, as named fields: [assembly] (the
    methods re-extracted, or why the assembly declined), [freeze] (the
    freeze path, with the reason for a full freeze) and [edit_script]
    (from the freeze delta, or by a shape diff and why).  With
    [fallback] (the solve's [stats.fallback]: the warm guard refused),
    [edit_script] reads [unused (full solve: <fallback>)], since the
    solve ran cold.  The daemon's [patch] reply carries them. *)
