(* Deterministic fan-out over OCaml 5 domains.

   Jobs are stamped with their submission index and pushed through a
   Mutex/Condition-guarded queue; each worker pulls the next job, runs it,
   and stores the result in the slot for that index.  Because results are
   keyed by submission index and read only after every worker has been
   joined, the output order (and therefore any output built from it) is
   identical to the sequential [List.map] — parallelism changes wall-clock
   time, never results.  There is deliberately no work stealing: a single
   shared queue keeps ordering trivial and the per-job cost here (whole
   simulation runs) dwarfs queue contention. *)

type 'a queue_state = {
  jobs : (int * 'a) Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool; (* no further submissions: drain and exit *)
  mutable aborted : bool; (* a job raised: skip the rest *)
}

let default_jobs () = Domain.recommended_domain_count ()

let take st =
  Mutex.lock st.mutex;
  let rec wait () =
    if st.aborted then None
    else if not (Queue.is_empty st.jobs) then Some (Queue.pop st.jobs)
    else if st.closed then None
    else begin
      Condition.wait st.nonempty st.mutex;
      wait ()
    end
  in
  let job = wait () in
  Mutex.unlock st.mutex;
  job

let map ?jobs f items =
  let n = List.length items in
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let workers = min jobs n in
  if workers <= 1 then List.map f items
  else begin
    let results = Array.make n None in
    let st =
      {
        jobs = Queue.create ();
        mutex = Mutex.create ();
        nonempty = Condition.create ();
        closed = false;
        aborted = false;
      }
    in
    (* The first failure in submission order wins, so a parallel run
       surfaces the same exception a sequential run would hit first. *)
    let error = ref None in
    let record_error idx exn bt =
      Mutex.lock st.mutex;
      (match !error with
      | Some (prev_idx, _, _) when prev_idx <= idx -> ()
      | Some _ | None -> error := Some (idx, exn, bt));
      st.aborted <- true;
      Condition.broadcast st.nonempty;
      Mutex.unlock st.mutex
    in
    let worker () =
      let rec loop () =
        match take st with
        | None -> ()
        | Some (idx, item) ->
            (match f item with
            | result -> results.(idx) <- Some result
            | exception exn ->
                record_error idx exn (Printexc.get_raw_backtrace ()));
            loop ()
      in
      loop ()
    in
    Mutex.lock st.mutex;
    List.iteri (fun idx item -> Queue.add (idx, item) st.jobs) items;
    st.closed <- true;
    Condition.broadcast st.nonempty;
    Mutex.unlock st.mutex;
    let domains = Array.init workers (fun _ -> Domain.spawn worker) in
    Array.iter Domain.join domains;
    match !error with
    | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None ->
        List.mapi
          (fun idx _ ->
            match results.(idx) with
            | Some r -> r
            | None -> assert false (* every job ran: no error, queue drained *))
          items
  end
