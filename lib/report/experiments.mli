(** Drivers that regenerate every table and figure of the paper's
    evaluation (see DESIGN.md section 4 for the experiment index). *)

type corpus_run = {
  cr_spec : Corpus.Spec.t;
  cr_analysis : Gator.Analysis.t;
  cr_table1 : Gator.Metrics.table1_row;
  cr_table2 : Gator.Metrics.table2_row;
}

type corpus_result = {
  cs_spec : Corpus.Spec.t;
  cs_seconds : float;  (** task wall time: generation + analysis + metrics *)
  cs_run : (corpus_run, string) result;
      (** [Error] carries the captured per-app exception text; sibling
          apps are unaffected *)
}

val run_specs :
  ?config:Gator.Config.t ->
  ?jobs:int ->
  ?fail_apps:string list ->
  Corpus.Spec.t list ->
  corpus_result list
(** Generate and analyze the given specs as one in-memory batch — on
    a worker-domain pool when the job count (default
    {!Pool.default_jobs}) exceeds 1, else
    on the exact sequential path.  Results are in submission order
    either way, and a crashing app yields an [Error] row instead of
    aborting the batch.  [fail_apps] injects a deliberate failure
    into the named apps, for fault-isolation tests and smoke runs. *)

val run_corpus :
  ?config:Gator.Config.t -> ?jobs:int -> ?fail_apps:string list -> unit -> corpus_result list
(** {!run_specs} over all 20 corpus apps. *)

val jsonl_of_tables :
  ?timings:bool ->
  Corpus.Spec.t ->
  float ->
  (Gator.Metrics.table1_row * Gator.Metrics.table2_row, string) result ->
  string
(** [jsonl_of_tables spec seconds tables] is the one row printer: a
    JSON object (single line, no newline) per app, with the Table 1
    populations and Table 2 averages of [Ok (t1, t2)], or [ok:false]
    and the captured exception text of [Error].  [seconds] is the
    task wall time, printed unless [~timings:false]; without it the
    row is a pure function of the analysis solution, so streaming and
    batch runs then compare byte-for-byte. *)

val jsonl_row : ?timings:bool -> corpus_result -> string
(** {!jsonl_of_tables} on a batch result's spec, wall time and
    Table 1/2 rows. *)

val run_stream :
  ?jobs:int ->
  ?high:int ->
  ?low:int ->
  ?timings:bool ->
  ?fail_apps:string list ->
  ?seed:int ->
  apps:int ->
  emit:(string -> unit) ->
  unit ->
  Pool.Stream.stats
(** Streaming ingestion of [apps] generated applications
    ({!Corpus.Gen.stream_spec} with [seed]) at the default config:
    specs are pulled on demand behind {!Pool.Stream}'s high/low
    watermark gate and analyzed on [jobs] domains, the calling one
    included.  Each task hands back only its app's two Table 1/2
    rows, not the analysis, and the app's {!jsonl_of_tables} row is
    handed to [emit] on the calling thread as its task completes
    (completion order!), so memory stays bounded by the gate rather
    than the stream length.  A failing app emits its [ok:false] row
    and the stream keeps flowing. *)

val table1 : corpus_result list -> string
(** Table 1: application features and constraint-graph populations. *)

val table2 : ?timings:bool -> corpus_result list -> string
(** Table 2: running time and average solution sizes, alongside the
    paper's published time and receivers columns.  [~timings:false]
    renders "-" for the measured time column, making the output
    deterministic for byte-for-byte comparisons. *)

val solver_stats : corpus_result list -> string
(** Beyond-paper: solver work counters (op applications vs the naive
    [rounds * |ops|] equivalent, delta pushes, descendants-cache hit
    rate) for each run. *)

val case_study : unit -> string
(** Section 5 case study: static averages vs the dynamic-oracle
    ("perfectly precise") averages plus soundness coverage for APV,
    BarcodeScanner, SuperGenPass, XBMC. *)

val figures : unit -> string
(** Figures 1/3/4: the ConnectBot example's constraint graph in
    Graphviz form plus the solution facts narrated in the paper. *)

val ablations : unit -> string
(** Beyond-paper: precision/cost impact of disabling each analysis
    refinement (cast filtering, FINDVIEW3 children refinement,
    listener-callback modeling, dialog modeling). *)

val context_precision : unit -> string
(** Beyond-paper: precision delta of inlining-based context
    sensitivity — average receiver/result solution-set sizes at
    inline depths 0/1/2 on the alias-heavy family (built so shared
    helpers merge whole call groups without inlining) and on XBMC,
    with the context-keyed engine's minted context counts. *)

val top_pollution : unit -> string
(** Beyond-paper: the precision column sound mode adds next to
    Table 2 — per app, the fraction of nonempty solution sets whose
    values were matched through an unknown-id (⊤) marker.  Corpus
    apps never mint a marker (XBMC is the 0% control); the reflective
    family shows the pollution the sound over-approximation costs. *)

val scalability : ?factors:int list -> unit -> string
(** Beyond-paper: analysis wall-clock as the application grows — a
    mid-size corpus spec scaled by each factor.  Demonstrates the
    near-linear cost behavior behind Table 2's "very practical"
    running times. *)

val soundness_sweep : ?apps:int -> ?seed:int -> unit -> string
(** Run the dynamic oracle against the static solution on random apps
    and the full corpus; reports coverage (must be 100%%). *)
