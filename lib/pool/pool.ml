(* Library root: task outcomes, the streaming driver, and batch runs
   expressed as streams that collect in submission order. *)

include Outcome
module Stream = Stream

let max_jobs = 127

let default_jobs () = max 1 (min 8 (Domain.recommended_domain_count ()))

let check_jobs jobs =
  if jobs >= 1 && jobs <= max_jobs then Ok jobs
  else Error (Printf.sprintf "%d is outside [1, %d]" jobs max_jobs)

(* [consume] runs on the calling thread, so plain stores into the
   result slots are race-free; slot [i] holds input [i]'s outcome. *)
let map ~jobs f xs =
  let xs = Array.of_list xs in
  let n = Array.length xs in
  let results = Array.make n None in
  ignore
    (Stream.run ~jobs:(min jobs n)
       ~produce:(fun i -> if i < n then Some xs.(i) else None)
       ~work:f
       ~consume:(fun i _ outcome -> results.(i) <- Some outcome)
       ());
  List.init n (fun i -> Option.get results.(i))

let run ~jobs tasks = map ~jobs (fun f -> f ()) tasks
