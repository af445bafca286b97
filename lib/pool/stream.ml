(* Streaming driver: a bounded producer/consumer pipeline over worker
   domains, and the pool's only worker loop.

   The calling thread is worker 0, so a run at [jobs] spawns [jobs -
   1] domains.  It pulls tasks from [produce] and hands finished
   outcomes to [consume] in completion order, so results are spilled
   as they arrive instead of accumulating.  Backpressure is a high/low
   watermark gate on the queued-but-unstarted backlog: production
   pauses at [high] and resumes once the backlog drains to [low],
   bounding in-flight memory regardless of corpus size.  While the
   gate is closed the caller runs tasks itself; it sleeps only at the
   end of the stream, waiting for the workers' last outcomes.

   Each worker owns a deque; the caller deals new tasks round-robin
   and an idle worker steals from a sibling's tail before sleeping,
   so one slow task cannot strand its queue.  All queue state hides
   behind one mutex: tasks are whole-app analyses, so contention on
   the scheduler lock is noise. *)

type stats = {
  st_produced : int;
  st_consumed : int;
  st_failed : int;
  st_max_queued : int;
  st_steals : int;
}

type ('a, 'b) state = {
  mutex : Mutex.t;
  work_available : Condition.t;  (** workers wait here for tasks *)
  progress : Condition.t;  (** the caller waits here for the last completions *)
  deques : (int * 'a) Queue.t array;  (** per-worker task deques *)
  results : (int * 'a * 'b Outcome.outcome) Queue.t;  (** completed, unconsumed *)
  mutable queued : int;  (** tasks dealt but not yet started *)
  mutable max_queued : int;
  mutable steals : int;
  mutable eof : bool;  (** the producer is exhausted (or the caller failed) *)
}

(* Take a task: own deque first (front), then steal from the sibling
   with the longest backlog (back).  Caller holds the mutex. *)
let take st w =
  match Queue.take_opt st.deques.(w) with
  | Some task -> Some task
  | None ->
      let victim = ref (-1) and best = ref 0 in
      Array.iteri
        (fun i q ->
          if i <> w && Queue.length q > !best then begin
            victim := i;
            best := Queue.length q
          end)
        st.deques;
      if !victim < 0 then None
      else begin
        (* steal from the tail: rotate all but the last element *)
        let q = st.deques.(!victim) in
        for _ = 2 to Queue.length q do
          Queue.add (Queue.take q) q
        done;
        st.steals <- st.steals + 1;
        Queue.take_opt q
      end

let worker_loop st w work =
  let rec loop () =
    Mutex.lock st.mutex;
    let rec next () =
      match take st w with
      | Some task -> Some task
      | None ->
          if st.eof then None
          else begin
            Condition.wait st.work_available st.mutex;
            next ()
          end
    in
    match next () with
    | None -> Mutex.unlock st.mutex
    | Some (i, payload) ->
        st.queued <- st.queued - 1;
        Mutex.unlock st.mutex;
        let outcome = Outcome.run_task (fun () -> work payload) in
        Mutex.lock st.mutex;
        Queue.add (i, payload, outcome) st.results;
        Condition.signal st.progress;
        Mutex.unlock st.mutex;
        loop ()
  in
  loop ()

let failed outcome = Result.is_error outcome.Outcome.oc_result

let run_sequential ~produce ~work ~consume =
  let rec loop i failures =
    match produce i with
    | None ->
        {
          st_produced = i;
          st_consumed = i;
          st_failed = failures;
          st_max_queued = (if i = 0 then 0 else 1);
          st_steals = 0;
        }
    | Some payload ->
        let outcome = Outcome.run_task (fun () -> work payload) in
        consume i payload outcome;
        loop (i + 1) (if failed outcome then failures + 1 else failures)
  in
  loop 0 0

let watermarks ~jobs ?high ?low () =
  let high = match high with Some h -> h | None -> max (2 * jobs) 4 in
  let low = match low with Some l -> l | None -> (high + 1) / 2 in
  if low < 0 || low >= high then
    Error (Printf.sprintf "need 0 <= low < high, got low %d and high %d" low high)
  else Ok (high, low)

let run ~jobs ?high ?low ~produce ~work ~consume () =
  if jobs <= 1 then run_sequential ~produce ~work ~consume
  else begin
    let high, low =
      match watermarks ~jobs ?high ?low () with
      | Ok hl -> hl
      | Error msg -> invalid_arg ("Stream.run: " ^ msg)
    in
    let st =
      {
        mutex = Mutex.create ();
        work_available = Condition.create ();
        progress = Condition.create ();
        deques = Array.init jobs (fun _ -> Queue.create ());
        results = Queue.create ();
        queued = 0;
        max_queued = 0;
        steals = 0;
        eof = false;
      }
    in
    let workers = ref [] in
    let produced = ref 0 and consumed = ref 0 and failures = ref 0 in
    let gate_open = ref true in
    let finish i payload outcome =
      incr consumed;
      if failed outcome then incr failures;
      consume i payload outcome
    in
    Fun.protect
      ~finally:(fun () ->
        (* Reached on the caller's failure too (a failed spawn, a raising
           [produce]/[consume]): declare EOF so the workers started so
           far drain what is queued and exit, then join them. *)
        Mutex.lock st.mutex;
        st.eof <- true;
        Condition.broadcast st.work_available;
        Mutex.unlock st.mutex;
        List.iter Domain.join !workers)
      (fun () ->
        for w = 1 to jobs - 1 do
          workers := Domain.spawn (fun () -> worker_loop st w work) :: !workers
        done;
        let rec drive () =
          Mutex.lock st.mutex;
          (* 1. drain completions (consume runs outside the lock) *)
          match Queue.take_opt st.results with
          | Some (i, payload, outcome) ->
              Mutex.unlock st.mutex;
              finish i payload outcome;
              drive ()
          | None -> (
              (* 2. hysteresis gate *)
              if st.queued >= high then gate_open := false
              else if st.queued <= low then gate_open := true;
              if !gate_open && not st.eof then begin
                (* 3. produce one task; the pull runs outside the lock
                   (generators may be expensive) *)
                Mutex.unlock st.mutex;
                let next = produce !produced in
                Mutex.lock st.mutex;
                (match next with
                | None ->
                    st.eof <- true;
                    Condition.broadcast st.work_available
                | Some payload ->
                    Queue.add (!produced, payload) st.deques.(!produced mod jobs);
                    incr produced;
                    st.queued <- st.queued + 1;
                    if st.queued > st.max_queued then st.max_queued <- st.queued;
                    Condition.signal st.work_available);
                Mutex.unlock st.mutex;
                drive ()
              end
              else
                (* 4. a closed gate leaves a backlog to run here; only
                   past EOF can every deque be empty *)
                match take st 0 with
                | Some (i, payload) ->
                    st.queued <- st.queued - 1;
                    Mutex.unlock st.mutex;
                    finish i payload (Outcome.run_task (fun () -> work payload));
                    drive ()
                | None when !consumed = !produced -> Mutex.unlock st.mutex
                | None ->
                    Condition.wait st.progress st.mutex;
                    Mutex.unlock st.mutex;
                    drive ())
        in
        drive ());
    {
      st_produced = !produced;
      st_consumed = !consumed;
      st_failed = !failures;
      st_max_queued = st.max_queued;
      st_steals = st.steals;
    }
  end
