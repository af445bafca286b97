(* Task outcomes: what a pooled task returned, or the exception it
   raised, with its wall time.  [Pool] re-exports this module whole. *)

type error = {
  err_exn : string;  (** [Printexc.to_string] of the escaping exception *)
  err_backtrace : string;  (** raw backtrace text; may be empty *)
}

type 'a outcome = {
  oc_seconds : float;  (** task wall time, failed or not *)
  oc_result : ('a, error) result;
}

(* Run one task inline.  Wall time is measured around the task body
   only, so a task queued behind a long sibling is not billed for the
   wait. *)
let run_task f =
  let start = Unix.gettimeofday () in
  let result =
    match f () with
    | v -> Ok v
    | exception exn ->
        (* capture the trace before any other code can clobber it *)
        let raw = Printexc.get_raw_backtrace () in
        Error
          {
            err_exn = Printexc.to_string exn;
            err_backtrace = Printexc.raw_backtrace_to_string raw;
          }
  in
  { oc_seconds = Unix.gettimeofday () -. start; oc_result = result }

(* Unwrap a successful outcome; [Failure] with the captured exception
   text on a failed one. *)
let value_exn outcome =
  match outcome.oc_result with
  | Ok v -> v
  | Error e -> failwith e.err_exn
