(* Host speed.  The host drifts: for minutes at a time every wall-clock
   figure of a run, sub-microsecond reads included, moves up together
   by as much as 1.7x.  A fixed reference kernel in benchmark code,
   timed between ops, runs through the same spells, so the timing
   metrics are reported at the host speed the kernel was written
   against: raw quiet time over [slowdown ()].  A change to the program
   cannot move the kernel: it calls nothing in the library. *)

module IntMap = Map.Make (Int)

(* The kernel's quiet time on the 2-core development host. *)
let reference_ms = 1.5

let slots = Array.make 8192 (-1)

let keys = Array.make 4000 0

let sink = ref 0

(* Hashing into an open-addressed table, a balanced map and an in-place
   sort: the kinds of work an analysis does.  The arrays hold only
   ints, so no write barrier runs, and it allocates about a quarter of
   the minor heap, all of it small.  Started on an empty minor heap,
   no collection runs inside it, so the program's heap cannot change
   its time. *)
let kernel () =
  Array.fill slots 0 (Array.length slots) (-1);
  let x = ref 12345 and m = ref IntMap.empty in
  for i = 0 to Array.length keys - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    keys.(i) <- !x;
    let h = ref (!x land 8191) in
    while slots.(!h) >= 0 do
      h := (!h + 1) land 8191
    done;
    slots.(!h) <- i;
    if i land 3 = 0 then m := IntMap.add (!x land 0xffff) i !m
  done;
  Array.sort compare keys;
  sink := !sink + IntMap.cardinal !m + keys.(0)

let samples = Stats.buf ()

(* Time one run of the kernel; workloads call this between ops, outside
   the program's time.  An untimed run first brings the kernel's own
   data into cache, so the cache state the program leaves behind does
   not move the timed one, and takes any major slice the minor
   collection left pending. *)
let measure () =
  Gc.minor ();
  kernel ();
  let t0 = Stats.now () in
  kernel ();
  Stats.push samples (1000. *. (Stats.now () -. t0))

(* How much slower than the reference the host ran in this run: the
   kernel's quiet time over [reference_ms], or 1 without samples. *)
let slowdown () = if Stats.length samples = 0 then 1. else Stats.quiet_mean samples /. reference_ms
