(* Stop-the-world GC pause time from OCaml's bundled runtime_events
   ring: the summed duration of minor collections (every one stops all
   domains) as seen by the main domain.  Started only in traced runs. *)

let cursor = ref None

let pause_ns = ref 0L

let opened = Hashtbl.create 4

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun ring ts phase ->
      if ring = 0 && phase = Runtime_events.EV_MINOR then
        Hashtbl.replace opened ring (Runtime_events.Timestamp.to_int64 ts))
    ~runtime_end:(fun ring ts phase ->
      if ring = 0 && phase = Runtime_events.EV_MINOR then
        match Hashtbl.find_opt opened ring with
        | Some t0 ->
            Hashtbl.remove opened ring;
            pause_ns := Int64.add !pause_ns (Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0)
        | None -> ())
    ()

let start () =
  try
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)
  with _ -> cursor := None

(* Drain the ring; call often enough that it never wraps. *)
let poll () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)
  | None -> ()

let pause_ms () =
  poll ();
  Int64.to_float !pause_ns /. 1e6

let reset () =
  poll ();
  pause_ns := 0L
