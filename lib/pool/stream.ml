(* Streaming driver: a bounded producer/consumer pipeline over worker
   domains, and the pool's only worker loop.

   The driver thread owns both ends: it pulls tasks from [produce]
   and hands finished outcomes to [consume] in completion order, so
   results can be spilled (e.g. to JSONL) as they arrive instead of
   accumulating.  Backpressure is a high/low watermark gate on the
   number of queued-but-unstarted tasks: production pauses when the
   backlog reaches [high] and resumes once workers drain it to [low],
   bounding in-flight memory regardless of corpus size.

   Workers each own a deque; the driver deals new tasks round-robin
   and an idle worker steals from a sibling's tail before sleeping,
   so one slow task cannot strand its queue.  All queue state hides
   behind one mutex — tasks are whole-app analyses, so contention on
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
  progress : Condition.t;  (** the driver waits here for drain/completions *)
  deques : (int * 'a) Queue.t array;  (** per-worker task deques *)
  results : (int * 'a * 'b Outcome.outcome) Queue.t;  (** completed, unconsumed *)
  mutable queued : int;  (** tasks dealt but not yet started *)
  mutable max_queued : int;
  mutable steals : int;
  mutable eof : bool;  (** the producer is exhausted (or the driver failed) *)
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
        (* the gate may reopen on this drain *)
        Condition.signal st.progress;
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
    Fun.protect
      ~finally:(fun () ->
        (* Reached on driver failure too (a failed spawn, a raising
           [produce]/[consume]): declare EOF so the workers started so
           far drain what is queued and exit, then join them. *)
        Mutex.lock st.mutex;
        st.eof <- true;
        Condition.broadcast st.work_available;
        Mutex.unlock st.mutex;
        List.iter Domain.join !workers)
      (fun () ->
        for w = 0 to jobs - 1 do
          workers := Domain.spawn (fun () -> worker_loop st w work) :: !workers
        done;
        let rec drive () =
          Mutex.lock st.mutex;
          (* 1. drain completions (consume runs outside the lock) *)
          let ready = Queue.take_opt st.results in
          match ready with
          | Some (i, payload, outcome) ->
              Mutex.unlock st.mutex;
              incr consumed;
              if failed outcome then incr failures;
              consume i payload outcome;
              drive ()
          | None ->
              (* 2. hysteresis gate *)
              if st.queued >= high then gate_open := false
              else if st.queued <= low then gate_open := true;
              if st.eof then begin
                if !consumed = !produced then Mutex.unlock st.mutex
                else begin
                  Condition.wait st.progress st.mutex;
                  Mutex.unlock st.mutex;
                  drive ()
                end
              end
              else if not !gate_open then begin
                Condition.wait st.progress st.mutex;
                Mutex.unlock st.mutex;
                drive ()
              end
              else begin
                (* 3. produce one task; the pull runs outside the lock
                   (generators may be expensive) *)
                Mutex.unlock st.mutex;
                let i = !produced in
                match produce i with
                | None ->
                    Mutex.lock st.mutex;
                    st.eof <- true;
                    Condition.broadcast st.work_available;
                    Mutex.unlock st.mutex;
                    drive ()
                | Some payload ->
                    incr produced;
                    Mutex.lock st.mutex;
                    Queue.add (i, payload) st.deques.(i mod jobs);
                    st.queued <- st.queued + 1;
                    if st.queued > st.max_queued then st.max_queued <- st.queued;
                    Condition.signal st.work_available;
                    Mutex.unlock st.mutex;
                    drive ()
              end
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
