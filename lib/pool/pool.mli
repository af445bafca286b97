(** Domain-based worker pool for independent batch tasks.

    A batch is a {!Stream} run over [min jobs n] workers (the calling
    thread and [min jobs n - 1] spawned domains) whose consumer fills
    one slot per task, so it keeps the observable behavior of a
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
(** The largest [jobs] a run accepts, 127.  [jobs] counts the calling
    thread, so a run then spawns at most 126 domains; the OCaml 5.1
    runtime holds at most 128, the calling one included. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [\[1, 8\]]. *)

val check_jobs : int -> (int, string) result
(** The worker-count check every command line applies to its
    [--jobs]: [Ok jobs] when [1 <= jobs <= max_jobs], else an error
    naming the range.  A count past the runtime's domain limit would
    fail to spawn its domains mid-run. *)

val run : jobs:int -> (unit -> 'a) list -> 'a outcome list
(** [run ~jobs tasks] is [map ~jobs (fun f -> f ()) tasks]. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b outcome list
(** [map ~jobs f xs] runs [f] on each input; outcomes in input order. *)
