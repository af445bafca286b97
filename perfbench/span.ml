(* In-memory span recorder for the traced run.

   Each span records its name, start and end (wall seconds), its parent
   span, the op it belongs to, and the minor words its domain allocated
   while it was open.  Spans live in per-domain buffers (worker domains
   of the stream workload record their own) and are written out once,
   when the run ends.  When tracing is off, [with_] is a plain call. *)

type span = {
  name : string;
  op : int;
  parent : int;  (** index in the same domain's buffer, [-1] for a root *)
  start : float;
  mutable stop : float;
  mutable words : float;
}

type buffer = { mutable spans : span array; mutable n : int; mutable stack : int list; dom : int }

let enabled = ref false

let lock = Mutex.create ()

let buffers : buffer list ref = ref []

let dummy = { name = ""; op = -1; parent = -1; start = 0.; stop = 0.; words = 0. }

let key =
  Domain.DLS.new_key (fun () ->
      let b = { spans = Array.make 1024 dummy; n = 0; stack = []; dom = (Domain.self () :> int) } in
      Mutex.protect lock (fun () -> buffers := b :: !buffers);
      b)

let with_ ?op name f =
  if not !enabled then f ()
  else begin
    let b = Domain.DLS.get key in
    if b.n = Array.length b.spans then begin
      let a = Array.make (2 * b.n) dummy in
      Array.blit b.spans 0 a 0 b.n;
      b.spans <- a
    end;
    let parent, inherited =
      match b.stack with p :: _ -> (p, b.spans.(p).op) | [] -> (-1, -1)
    in
    let idx = b.n in
    let w0 = Gc.minor_words () in
    let s =
      { name; op = Option.value op ~default:inherited; parent; start = Stats.now (); stop = 0.; words = 0. }
    in
    b.spans.(idx) <- s;
    b.n <- idx + 1;
    b.stack <- idx :: b.stack;
    let finish () =
      s.stop <- Stats.now ();
      s.words <- Gc.minor_words () -. w0;
      b.stack <- List.tl b.stack
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Per-name aggregate: sample buffers of total and self time (ms), and
   of minor words, one sample per span. *)
type agg = { total_ms : Stats.buf; self_ms : Stats.buf; words : Stats.buf }

let aggregate () =
  let table = Hashtbl.create 32 in
  let get name =
    match Hashtbl.find_opt table name with
    | Some a -> a
    | None ->
        let a = { total_ms = Stats.buf (); self_ms = Stats.buf (); words = Stats.buf () } in
        Hashtbl.add table name a;
        a
  in
  Mutex.protect lock (fun () ->
      List.iter
        (fun b ->
          let child = Array.make b.n 0. in
          for i = 0 to b.n - 1 do
            let s = b.spans.(i) in
            if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.stop -. s.start)
          done;
          for i = 0 to b.n - 1 do
            let s = b.spans.(i) in
            let a = get s.name in
            let d = s.stop -. s.start in
            Stats.push a.total_ms (1000. *. d);
            Stats.push a.self_ms (1000. *. (d -. child.(i)));
            Stats.push a.words s.words
          done)
        !buffers);
  table

let count () = Mutex.protect lock (fun () -> List.fold_left (fun acc b -> acc + b.n) 0 !buffers)

(* One JSON object per line, in per-domain recording order. *)
let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Mutex.protect lock (fun () ->
          List.iter
            (fun b ->
              for i = 0 to b.n - 1 do
                let s = b.spans.(i) in
                Printf.fprintf oc
                  "{\"name\":%S,\"dom\":%d,\"id\":%d,\"parent\":%d,\"op\":%d,\"start\":%.9f,\"end\":%.9f,\"minor_words\":%.0f}\n"
                  s.name b.dom i s.parent s.op s.start s.stop s.words
              done)
            (List.rev !buffers)))
