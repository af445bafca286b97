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

val analyze_solved :
  ?config:Config.t -> ?fallback:string -> Framework.App.t -> Analysis.t * Solve.solved
(** Full analysis that also captures the solution for later warm
    restarts.  [?fallback] threads a refusal reason into the stats when
    this call replaces a failed warm start (e.g. a corrupt state
    file). *)

val analyze_incremental :
  ?config:Config.t -> prev:Solve.solved -> Framework.App.t -> Analysis.t * Solve.solved
(** Re-analyze a patched app warm: extract over [prev]'s interner,
    diff the two graph shapes, re-solve only the dirty components.
    Falls back to a full solve (with [stats.fallback] set) when [prev]
    is unusable for the given app and configuration. *)

val refusal_warning : Analysis.t -> string option
(** The stderr warning for a warm start that fell back to a full solve
    ([stats.fallback] set), or [None] for a clean warm/cold run.  The
    CLI's [--incremental] prints this unconditionally (even under
    [--json]) so a refusal is never silent; tests pin the message
    here. *)
