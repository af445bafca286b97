(** Wire protocol of the query daemon.

    Framing: one message per frame — the payload length in ASCII
    decimal, ['\n'], then that many bytes of UTF-8 JSON.  Requests are
    objects with a ["method"] field; responses are [{"ok": ...}] (plus
    a ["generation"] counter on per-app answers) or
    [{"error": {"code", "message"}}].  Hostile input maps to error
    envelopes, never to a dead daemon. *)

val max_frame : int
(** Payload byte cap; longer frames are refused before parsing. *)

(** {1 Frame IO} *)

type frame_error =
  | Eof  (** clean close before a length line *)
  | Bad_frame of string  (** framing violated: bad length line or truncated payload *)
  | Oversized of int  (** declared length above {!max_frame} *)

val pp_frame_error : frame_error Fmt.t

val read_frame : in_channel -> (string, frame_error) result

val write_frame : out_channel -> string -> unit
(** Writes and flushes one frame. *)

(** {1 Error envelope} *)

type error_code =
  | E_parse
  | E_bad_frame
  | E_oversized
  | E_unknown_method
  | E_unknown_app
  | E_unknown_node
  | E_bad_params
  | E_internal

val code_name : error_code -> string

val error : error_code -> string -> Util.Json.t

val ok : ?generation:int -> Util.Json.t -> Util.Json.t

(** {1 Request vocabulary} *)

type request =
  | R_ping
  | R_list
  | R_load of string
  | R_points_to of { app : string; node : Gator.Node.t; budget : int option }
      (** [budget] is validated (a non-negative int) and round-trips,
          but has no effect: a points-to answer is a row lookup *)
  | R_views_of_listener of { app : string; listener : Gator.Node.listener_abs }
  | R_activities_of_id of { app : string; id : string }
  | R_patch of { app : string; edits : Util.Json.t }
      (** edits in the [Corpus.Patch.of_json] grammar, kept as raw JSON
          so the daemon can persist them verbatim *)
  | R_stats of string
  | R_shutdown

val request_to_json : request -> Util.Json.t

val request_of_json : Util.Json.t -> (request, error_code * string) result

(** {1 Operand codecs} (exposed for tests and CLI sugar) *)

val node_to_json : Gator.Node.t -> Util.Json.t

val node_of_json : Util.Json.t -> (Gator.Node.t, error_code * string) result

val listener_to_json : Gator.Node.listener_abs -> Util.Json.t

val listener_of_json : Util.Json.t -> (Gator.Node.listener_abs, error_code * string) result
