(** Analysis configuration.

    The defaults reproduce the paper's implementation (including the
    FINDVIEW3 children-only refinement it mentions employing); each
    switch exists for the ablation benchmarks documented in
    DESIGN.md. *)

(** Fixed-point engine selection.  Both compute the same solution:
    [Naive] re-applies every operation against full structural sets
    each round until nothing changes (the executable specification the
    differential tests compare against), and [Interned] (the default,
    the production path) schedules only operations whose inputs grew,
    over hash-consed dense integer ids with bitset solution sets and an
    SCC-condensed CSR flow graph. *)
type solver = Naive | Interned

val solver_name : solver -> string

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
          outlier — see the ablation benches. *)
  inline_body_limit : int;
      (** Bound on the body size (statement count) of callees eligible
          for context-sensitive separation; larger callees share their
          locals context-insensitively. *)
  ctx_keyed : bool;
      (** Run context sensitivity natively on the interned engine:
          clone bodies are walked in id space (each ⟨variable, clone⟩
          pair interned once, edges emitted id-level only) instead of
          re-extracted as [$n]-suffixed program text.  Bit-identical to
          the inlining path at every depth — the differential batteries
          pin it — but skips the per-occurrence string mangling and
          structural table writes.  Only the [Interned] solver honours
          it; the naive engine always takes the inlining path.  [false]
          forces inlining everywhere, for the equivalence oracle. *)
  max_iterations : int;  (** fixed-point safety valve *)
  solver : solver;  (** fixed-point engine; results are identical *)
  jobs : int;
      (** Cap on worker domains for batch (multi-app) drivers.  The
          pool size defaults to [Domain.recommended_domain_count ()]
          capped by this value; an explicit [--jobs N] on the batch
          CLIs overrides both.  Single-app analysis never spawns
          domains. *)
  incremental : bool;
      (** Drivers that own a state file (the CLI's [--incremental])
          set this to request warm re-solves against a persisted
          {!Solve.solved}.  The flag participates in the warm guard's
          configuration equality, so a warm solution can never leak
          into a non-incremental run's stats. *)
  shared_intern : bool;
      (** Build graphs over the process-wide frozen interner tier
          ({!Intern.shared_tier}), so the framework resource
          vocabulary is interned once instead of per task.  Results
          are bit-identical either way (only id labels move); [false]
          forces fully private interners, for the differential tests. *)
}

val default : t

val baseline : t
(** Everything off — approximates a plain Andersen-style analysis with
    no Android modeling refinements. *)
