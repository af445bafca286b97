(* Clocks, sample buffers, percentiles and process counters. *)

(* Monotonic seconds with nanosecond resolution (CLOCK_MONOTONIC). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Growable float buffer: per-op latencies of one run. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 256 0.; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0. in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let length b = b.len

let sorted b =
  let a = Array.sub b.data 0 b.len in
  Array.sort Float.compare a;
  a

let sum b =
  let s = ref 0. in
  for i = 0 to b.len - 1 do
    s := !s +. b.data.(i)
  done;
  !s

(* Nearest-rank percentile.  A percentile is only reported when at
   least ten samples lie beyond it; callers size their runs with
   [min_samples] so that always holds, and this refuses otherwise. *)
let min_samples q = int_of_float (Float.ceil ((10. /. (1. -. q)) -. 1e-6))

let percentile b q =
  if b.len = 0 then invalid_arg "Stats.percentile: no samples";
  if q > 0.5 && b.len < min_samples q then
    invalid_arg (Printf.sprintf "Stats.percentile: p%g needs %d samples, have %d" (100. *. q)
         (min_samples q) b.len);
  let a = sorted b in
  let rank = int_of_float (Float.ceil (q *. float_of_int b.len)) in
  a.(max 0 (min (b.len - 1) (rank - 1)))

let median b = percentile b 0.5

(* Mean of the fastest third: host noise only ever slows a sample down,
   so the fastest samples are the least disturbed. *)
let quiet_mean b =
  let a = sorted b in
  let m = max 1 (Array.length a / 3) in
  Array.fold_left ( +. ) 0. (Array.sub a 0 m) /. float_of_int m

let median_of l =
  let b = buf () in
  List.iter (push b) l;
  median b

(* [Gc.quick_stat] sums over all domains, so the allocation metric
   reads the same at any job count. *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* Peak resident set size in MiB, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec loop () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                  float_of_int kb /. 1024.)
          | _ -> loop ()
        in
        loop ())
  in
  try from_proc ()
  with _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let nproc () =
  try
    let ic = Unix.open_process_in "nproc 2>/dev/null" in
    let n = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
    ignore (Unix.close_process_in ic);
    if n > 0 then n else Domain.recommended_domain_count ()
  with _ -> Domain.recommended_domain_count ()
