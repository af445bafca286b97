(* Client side of the query daemon's protocol: connect, frame a JSON
   request, read the framed JSON response.  Used by `gator query`, the
   CI smoke, and the concurrency tests (each client thread owns its
   own connection; the protocol is strictly request/response). *)

module J = Util.Json
module P = Protocol

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  (* writes to a daemon that died mid-exchange must surface as the
     EPIPE that [rpc] catches, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX path);
    Ok { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  with Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with _ -> ());
    Error (Printf.sprintf "connect %s: %s" path (Unix.error_message e))

(* Retry while the daemon is still binding its socket. *)
let connect_retry ?(attempts = 100) ?(delay = 0.05) path =
  let rec go n =
    match connect path with
    | Ok c -> Ok c
    | Error _ when n > 1 ->
        Unix.sleepf delay;
        go (n - 1)
    | Error _ as e -> e
  in
  go attempts

(* [close_out_noerr] closes the shared fd; a second [Unix.close]
   would race fd reuse by other threads (see Daemon.serve_connection). *)
let close c = close_out_noerr c.oc

let rpc c request =
  try
    P.write_frame c.oc (J.to_string request);
    match P.read_frame c.ic with
    | Ok payload -> (
        match J.of_string payload with
        | Ok j -> Ok j
        | Error e -> Error (Printf.sprintf "unparsable response: %s" e))
    | Error fe -> Error (Fmt.str "%a" P.pp_frame_error fe)
  with exn -> Error (Printexc.to_string exn)

(* One-shot convenience: connect, one request, close.  Retries the
   connect by default so `gator query` right after `gator serve &`
   (the CI smoke) waits out the daemon's preload solve. *)
let request ?(attempts = 200) ~socket req =
  match connect_retry ~attempts socket with
  | Error _ as e -> e
  | Ok c -> Fun.protect ~finally:(fun () -> close c) (fun () -> rpc c req)
