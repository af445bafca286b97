(** Domain-based worker pool for independent batch tasks.

    A batch is a {!Stream} run over [min jobs n] workers whose consumer
    fills one slot per task, so it keeps the observable behavior of a
    sequential loop: outcomes come back in submission order, a task
    that raises yields a per-task {!error} instead of killing the
    batch, and [jobs <= 1] (or a single task) runs every task inline
    on the calling domain.  Tasks must be self-contained, per
    {!Stream.run}'s rule. *)

include module type of struct
  include Outcome
end

module Stream = Stream

val max_jobs : int
(** The most worker domains a run can spawn: the OCaml 5.1 runtime
    holds at most 128 domains, the calling one included. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [\[1, 8\]]. *)

val run : jobs:int -> (unit -> 'a) list -> 'a outcome list
(** [run ~jobs tasks] is [map ~jobs (fun f -> f ()) tasks]. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b outcome list
(** [map ~jobs f xs] runs [f] on each input; outcomes in input order. *)
