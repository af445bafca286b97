(** The resident query daemon: an in-memory registry of solved apps
    behind a Unix-domain socket speaking the {!Protocol} framing.

    Requests are handled serially on a single thread, so an
    incremental patch is atomic with respect to queries — every
    answer reflects exactly one registry generation, reported in the
    response envelope.  With a state directory configured, accepted
    patch edits are persisted; a restarted daemon replays them over
    the regenerated corpus app and re-solves, so its first patch takes
    the warm fragment route.  An edit log that cannot be replayed is
    discarded, with the reason logged, and the base app is solved. *)

type t

val create : ?log:bool -> ?state_dir:string -> socket:string -> unit -> t
(** [state_dir] is created if missing; omit it for a purely in-memory
    daemon.  [log] (default true) prints one stderr line per load /
    patch / listen. *)

val run : ?preload:string list -> t -> unit
(** Bind the socket, optionally load the named corpus apps, and serve
    until a [shutdown] request.  Removes a stale socket file first and
    unlinks it on exit. *)

val handle : t -> string -> string
(** One request payload to one response payload — the daemon's full
    dispatch without the socket, exposed for in-process tests and the
    [experiments verify] smoke.  Never raises. *)

type entry
(** A registered app; opaque. *)

val load : t -> string -> (entry * string, Protocol.error_code * string) result
(** Load (or return the already-registered) corpus app.  The string is
    the solution's source: ["registry"], ["replayed"] (crash recovery
    replayed at least one persisted edit), or ["solved"]. *)
