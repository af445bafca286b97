(** Client side of the daemon protocol: one connection, strictly
    request/response.  Connections are not shared between threads —
    each client thread opens its own. *)

type t

val connect : string -> (t, string) result

val connect_retry : ?attempts:int -> ?delay:float -> string -> (t, string) result
(** Retry [connect] while the daemon is still binding (default 100
    attempts, 50ms apart). *)

val close : t -> unit

val rpc : t -> Util.Json.t -> (Util.Json.t, string) result
(** Send one framed request, read one framed response.  [Error] is a
    transport failure; protocol-level failures arrive as [Ok] error
    envelopes. *)

val request : ?attempts:int -> socket:string -> Util.Json.t -> (Util.Json.t, string) result
(** One-shot: connect (retrying while the daemon binds; default 200
    attempts, 50ms apart), one [rpc], close. *)
