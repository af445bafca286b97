(** Streaming driver: bounded producer/consumer pipeline over worker
    domains.  It is the pool's only worker implementation: batch runs
    ([Pool.run]) are streams that collect in submission order, and
    corpora too large to hold in memory (thousands of generated apps)
    stream their results out as they complete.

    The calling thread drives both ends: it pulls tasks from
    [produce] and hands each finished outcome to [consume] in
    {e completion} order, so results can be spilled (e.g. to JSONL)
    as they arrive.  Backpressure is a high/low watermark gate on the
    queued-but-unstarted backlog: production pauses at [high] and
    resumes once workers drain the backlog to [low], bounding
    in-flight memory regardless of stream length.  Workers own
    per-domain deques dealt round-robin; an idle worker steals from
    the longest sibling backlog before sleeping.

    Fault isolation: a task that raises is captured as an [Error]
    {!Outcome.outcome} handed to [consume], and the stream keeps
    flowing. *)

type stats = {
  st_produced : int;  (** tasks pulled from the producer *)
  st_consumed : int;  (** outcomes handed to [consume]; equals [st_produced] on a clean run *)
  st_failed : int;  (** outcomes whose task raised *)
  st_max_queued : int;  (** peak queued-but-unstarted backlog; never exceeds [high] *)
  st_steals : int;  (** tasks an idle worker took from a sibling's deque *)
}

val run :
  jobs:int ->
  ?high:int ->
  ?low:int ->
  produce:(int -> 'a option) ->
  work:('a -> 'b) ->
  consume:(int -> 'a -> 'b Outcome.outcome -> unit) ->
  unit ->
  stats
(** [run ~jobs ~produce ~work ~consume ()] pulls [produce 0], [produce
    1], ... until [None], runs [work] on each payload on one of
    [jobs] worker domains, and calls [consume i payload outcome] on
    the calling thread as each task completes.  [produce] and
    [consume] always run on the calling thread, so they may share
    unsynchronized state (output channels, counters); [work] must be
    self-contained: it must not share mutable structures (in
    particular [Framework.App.t] values, whose hierarchy and
    layout-package caches are unsynchronized) with other concurrently
    running tasks.  The corpus drivers obey this by generating each
    application inside its own task.

    [high] and [low] default as in {!watermarks}.  [jobs <= 1] runs
    the exact sequential loop — produce, work, consume, repeat — on
    the calling thread with no domain spawned.  If a worker fails to
    spawn, the workers already started are joined before the failure
    is re-raised, so later runs in the process are unaffected.

    @raise Invalid_argument unless [0 <= low < high]. *)

val watermarks : jobs:int -> ?high:int -> ?low:int -> unit -> (int * int, string) result
(** The [(high, low)] gate {!run} uses at [jobs > 1]: [high] defaults
    to [max (2 * jobs) 4] and [low] to [(high + 1) / 2]; [Error]
    unless [0 <= low < high].  Lets a CLI refuse bad watermarks as a
    usage error before any work starts. *)
