(** Solution diffing: compare two analysis results of the same (or an
    edited) application — the regression-checking workflow of a team
    adopting the analysis in CI.  Operations are matched by structural
    site, so results are comparable across configurations and across
    code edits that leave a site in place. *)

type op_change = {
  oc_site : Node.op_site;
  oc_role : string;  (** "receivers" | "arguments" | "results" | "listeners" *)
  oc_only_left : int;  (** values present only in the left solution *)
  oc_only_right : int;
}

type t = {
  d_left : string;
  d_right : string;
  d_ops_only_left : Node.op_site list;
  d_ops_only_right : Node.op_site list;
  d_changed : op_change list;
  d_transitions_only_left : (string * string) list;
  d_transitions_only_right : (string * string) list;
}

val compare : Analysis.t -> Analysis.t -> t

val is_empty : t -> bool
(** No differences. *)

val pp : t Fmt.t

(** {1 Graph-level edit scripts (incremental re-analysis)} *)

val edit_script : old_:Solve.shape -> new_:Solve.shape -> Solve.edit_script
(** Structural diff between two graph shapes sharing an interner:
    added/removed flow edges (cast kinds matched by class name across
    the two symbol tables), added/removed seeds, and a multiset op
    matching.  Dynamic N_ret dependencies are not part of the static
    shape and are handled by the warm solver from the captured
    solution. *)

val delta_edit_script :
  prev:Graph.t ->
  graph:Graph.t ->
  edited:bool array ->
  freeze:Graph.freeze_report ->
  old_:Solve.shape ->
  new_:Solve.shape ->
  (Solve.edit_script, string) result
(** {!edit_script} for a graph assembled from [prev]'s fragments with
    the methods [edited] marks re-extracted ({!Extract.reextract}) and
    frozen by {!Graph.freeze_delta} (its report [freeze]), from the
    work both already did: the freeze's changed rows, the edited
    slices' and the dialog passes' seeds, and the ops by fragment
    offsets.  [old_] and [new_] are the two graphs' shapes.  Equal to
    {!edit_script} field for field, but for [es_moved], which carries
    the freeze's moved nodes, and for the op maps' choice among ops
    with one static tuple (twin methods of an unedited class).
    [Error] with the reason it cannot derive one: the flow froze in
    full. *)

val edit_script_is_empty : Solve.edit_script -> bool
(** No edits and every op matched. *)
