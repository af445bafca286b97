(** Analysis configuration.

    The defaults reproduce the paper's implementation (including the
    FINDVIEW3 children-only refinement it mentions employing); each
    switch exists for the ablation benchmarks documented in
    DESIGN.md. *)

type t = {
  cast_filtering : bool;
      (** Drop abstract objects that cannot pass a [(C) x] cast.  The
          baseline reference analysis keeps casts as plain copy edges;
          filtering is standard and sound. *)
  findone_refinement : bool;
      (** When on, [getCurrentView()]-style operations search direct
          children only; when off, every FINDVIEW3 operation
          conservatively returns all descendants. *)
  listener_callbacks : bool;
      (** Model the implicit [y.n(x)] callback of SETLISTENER (flows of
          listener into [this] and view into the handler parameter). *)
  model_dialogs : bool;
      (** Extension: treat [Dialog] like an activity-style content
          holder (the paper's implementation left dialogs
          unhandled). *)
  inline_depth : int;
      (** Inlining-based context sensitivity: clone uniquely-resolved
          small callees up to this depth, separating per-call-site
          value flow.  [0] (the default) reproduces the paper's
          context-insensitive analysis; the paper's Section 5 notes
          context sensitivity as the cure for the XBMC receivers
          outlier — see the ablation benches.  Extraction expands clone
          bodies in id space (each ⟨variable, clone⟩ pair interned
          once); the rule-table reference ({!Analysis.reference})
          re-extracts them as [$n]-suffixed program text.  The two are
          bit-identical at every depth. *)
  max_iterations : int;  (** fixed-point safety valve *)
}

val default : t

val baseline : t
(** Everything off — approximates a plain Andersen-style analysis with
    no Android modeling refinements. *)
