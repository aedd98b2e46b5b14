(* The event loop: ordering, cancellation, horizons, and the deterministic
   PRNG everything else builds on. *)

let events_fire_in_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule_at sim ~time:3. (fun () -> log := 3 :: !log));
  ignore (Sim.schedule_at sim ~time:1. (fun () -> log := 1 :: !log));
  ignore (Sim.schedule_at sim ~time:2. (fun () -> log := 2 :: !log));
  Sim.run sim;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log)

let ties_break_by_scheduling_order () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Sim.schedule_at sim ~time:1. (fun () -> log := i :: !log))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo ties" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log)

let clock_advances_to_event_time () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim ~time:5. (fun () -> Alcotest.(check (float 1e-9)) "now" 5. (Sim.now sim)));
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "final clock" 5. (Sim.now sim)

let cancelled_events_do_not_fire () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule_at sim ~time:1. (fun () -> fired := true) in
  Sim.cancel h;
  Alcotest.(check bool) "cancelled" true (Sim.cancelled h);
  Sim.run sim;
  Alcotest.(check bool) "did not fire" false !fired

let cancel_is_idempotent () =
  let sim = Sim.create () in
  let h = Sim.schedule_at sim ~time:1. (fun () -> ()) in
  Sim.cancel h;
  Sim.cancel h;
  Alcotest.(check int) "pending" 0 (Sim.pending sim)

let pending_counts_live_events () =
  let sim = Sim.create () in
  let h1 = Sim.schedule_at sim ~time:1. (fun () -> ()) in
  ignore (Sim.schedule_at sim ~time:2. (fun () -> ()));
  Alcotest.(check int) "two pending" 2 (Sim.pending sim);
  Sim.cancel h1;
  Alcotest.(check int) "one pending" 1 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "none pending" 0 (Sim.pending sim)

let run_until_stops_at_horizon () =
  let sim = Sim.create () in
  let fired = ref [] in
  ignore (Sim.schedule_at sim ~time:1. (fun () -> fired := 1 :: !fired));
  ignore (Sim.schedule_at sim ~time:10. (fun () -> fired := 10 :: !fired));
  Sim.run ~until:5. sim;
  Alcotest.(check (list int)) "only the early one" [ 1 ] !fired;
  Alcotest.(check (float 1e-9)) "clock at horizon" 5. (Sim.now sim);
  Sim.run sim;
  Alcotest.(check (list int)) "late one after resume" [ 10; 1 ] !fired

let events_scheduled_during_run_fire () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      ignore
        (Sim.schedule sim ~delay:1. (fun () ->
             incr count;
             chain (n - 1)))
  in
  chain 5;
  Sim.run sim;
  Alcotest.(check int) "chained" 5 !count;
  Alcotest.(check (float 1e-9)) "clock" 5. (Sim.now sim)

let stop_halts_processing () =
  let sim = Sim.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore
      (Sim.schedule sim ~delay:1. (fun () ->
           incr count;
           if !count = 3 then Sim.stop sim))
  done;
  Sim.run sim;
  Alcotest.(check int) "stopped at 3" 3 !count

let scheduling_in_past_rejected () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim ~time:5. (fun () -> ()));
  Sim.run sim;
  (match Sim.schedule_at sim ~time:1. (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument");
  match Sim.schedule sim ~delay:(-1.) (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let step_processes_one_event () =
  let sim = Sim.create () in
  let count = ref 0 in
  ignore (Sim.schedule_at sim ~time:1. (fun () -> incr count));
  ignore (Sim.schedule_at sim ~time:2. (fun () -> incr count));
  Alcotest.(check bool) "step 1" true (Sim.step sim);
  Alcotest.(check int) "one fired" 1 !count;
  Alcotest.(check bool) "step 2" true (Sim.step sim);
  Alcotest.(check bool) "empty" false (Sim.step sim)

let heap_survives_many_events =
  QCheck.Test.make ~name:"sim: random schedules fire in sorted order" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 200) (float_range 0. 1000.))
    (fun times ->
      let sim = Sim.create () in
      let fired = ref [] in
      List.iter (fun t -> ignore (Sim.schedule_at sim ~time:t (fun () -> fired := t :: !fired))) times;
      Sim.run sim;
      let fired = List.rev !fired in
      List.sort compare times = fired)

(* Guards the 4-ary heap: 10k random schedule/cancel/step operations, then
   a full drain, asserting every fired event is nondecreasing in (time,
   creation order) — creation order equals the heap's tie-breaking [seq]. *)
let heap_order_under_random_schedule_cancel =
  QCheck.Test.make ~name:"sim: 10k random schedule/cancel pop in (time, seq) order" ~count:10
    QCheck.small_int (fun seed ->
      let sim = Sim.create ~seed:(seed + 1) () in
      let rng = Rng.create ~seed:(seed + 1000) in
      let fired = ref [] in
      let stamp = ref 0 in
      let live = ref [] in
      for _ = 1 to 10_000 do
        match Rng.int rng 10 with
        | 0 | 1 | 2 | 3 | 4 | 5 ->
            (* Schedule at now + random delay; delay 0 and duplicate times
               are common, exercising the seq tie-break. *)
            let delay = float_of_int (Rng.int rng 50) /. 10. in
            let k = !stamp in
            incr stamp;
            let h =
              Sim.schedule sim ~delay (fun () -> fired := (Sim.now sim, k) :: !fired)
            in
            live := h :: !live
        | 6 | 7 -> (
            (* Cancel a random live handle (possibly already fired). *)
            match !live with
            | [] -> ()
            | handles ->
                let i = Rng.int rng (List.length handles) in
                Sim.cancel (List.nth handles i))
        | _ -> ignore (Sim.step sim)
      done;
      Sim.run sim;
      let fired = List.rev !fired in
      let rec nondecreasing = function
        | (t1, k1) :: ((t2, k2) :: _ as rest) ->
            (t1 < t2 || (t1 = t2 && k1 < k2)) && nondecreasing rest
        | [ _ ] | [] -> true
      in
      nondecreasing fired)

(* --- Timing wheel vs the reference heap -------------------------------- *)

(* One command script, two simulators: the wheel must fire the exact same
   (time, stamp) sequence as the reference heap — same-timestamp ties,
   sub-tick time differences, cancels, single steps, and partial runs with
   a horizon (which make the wheel advance its tick past events that are
   then scheduled "behind" it). *)
type cmd = Csched of float | Ccancel of int | Cstep | Cuntil of float

let gen_script seed n =
  let rng = Rng.create ~seed in
  List.init n (fun _ ->
      match Rng.int rng 12 with
      | 0 | 1 | 2 | 3 | 4 | 5 ->
          let delay =
            match Rng.int rng 4 with
            | 0 -> float_of_int (Rng.int rng 20) (* whole seconds: heavy ties *)
            | 1 -> float_of_int (Rng.int rng 50) /. 10.
            | 2 -> float_of_int (Rng.int rng 1000) *. 1e-7 (* sub-tick offsets *)
            | _ -> Rng.float rng 10.
          in
          Csched delay
      | 6 | 7 -> Ccancel (Rng.int rng 1_000_000)
      | 8 | 9 | 10 -> Cstep
      | _ -> Cuntil (Rng.float rng 5.))

let run_script ~sched cmds =
  let sim = Sim.create ~sched () in
  let fired = ref [] in
  let stamp = ref 0 in
  let handles = ref [] in
  let n_handles = ref 0 in
  List.iter
    (fun cmd ->
      match cmd with
      | Csched delay ->
          let k = !stamp in
          incr stamp;
          let h = Sim.schedule sim ~delay (fun () -> fired := (Sim.now sim, k) :: !fired) in
          handles := h :: !handles;
          incr n_handles
      | Ccancel i -> if !n_handles > 0 then Sim.cancel (List.nth !handles (i mod !n_handles))
      | Cstep -> ignore (Sim.step sim)
      | Cuntil d -> Sim.run ~until:(Sim.now sim +. d) sim)
    cmds;
  Sim.run sim;
  (List.rev !fired, Sim.now sim, Sim.pending sim)

let wheel_matches_heap_differential =
  QCheck.Test.make ~name:"sim: wheel fires identically to the 4-ary heap" ~count:15
    QCheck.small_int (fun seed ->
      let cmds = gen_script (seed + 1) 3000 in
      run_script ~sched:Sim.Heap cmds = run_script ~sched:Sim.Wheel cmds)

let wheel_overflow_far_future () =
  (* Spans beyond the wheel's 2^32 us levels exercise the overflow list and
     its reseeding jump. *)
  let sim = Sim.create ~sched:Sim.Wheel () in
  let log = ref [] in
  let at t tag = ignore (Sim.schedule_at sim ~time:t (fun () -> log := tag :: !log)) in
  at 9000. 3;
  at 0.001 1;
  at (9000. +. 1e-7) 4;
  at 4000. 2;
  at 50000. 5;
  Sim.run sim;
  Alcotest.(check (list int)) "overflow order" [ 1; 2; 3; 4; 5 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 50000. (Sim.now sim)

let wheel_schedule_behind_advanced_tick () =
  (* run ~until peeks the next event, advancing the wheel's tick to it;
     an event scheduled after that, earlier than the peeked one, must
     still fire first. *)
  let sim = Sim.create ~sched:Sim.Wheel () in
  let log = ref [] in
  ignore (Sim.schedule_at sim ~time:1. (fun () -> log := 1 :: !log));
  ignore (Sim.schedule_at sim ~time:10. (fun () -> log := 10 :: !log));
  Sim.run ~until:5. sim;
  Alcotest.(check (list int)) "horizon respected" [ 1 ] !log;
  ignore (Sim.schedule_at sim ~time:6. (fun () -> log := 6 :: !log));
  Sim.run sim;
  Alcotest.(check (list int)) "behind-tick event first" [ 1; 6; 10 ] (List.rev !log)

let wheel_tie_break_fifo () =
  let sim = Sim.create ~sched:Sim.Wheel () in
  let log = ref [] in
  for i = 0 to 99 do
    ignore (Sim.schedule_at sim ~time:1. (fun () -> log := i :: !log))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo ties" (List.init 100 Fun.id) (List.rev !log)

(* --- scheduler edges, each differential heap vs wheel ------------------- *)

(* Events far beyond the wheel's 2^32-microsecond level span live in the
   top-level overflow list; mixing them with near-term ties must still fire
   in the heap's exact (time, seq) order through the reseeding jumps. *)
let beyond_horizon_differential =
  QCheck.Test.make ~name:"sim: beyond-horizon overflow fires like the heap" ~count:10
    QCheck.small_int (fun seed ->
      let rng = Rng.create ~seed:(seed + 21) in
      let cmds =
        List.init 600 (fun _ ->
            match Rng.int rng 8 with
            | 0 | 1 | 2 -> Csched (float_of_int (Rng.int rng 200_000)) (* deep overflow, ties *)
            | 3 | 4 -> Csched (Rng.float rng 300_000.)
            | 5 -> Csched (Rng.float rng 5.)
            | 6 -> Ccancel (Rng.int rng 1_000_000)
            | _ -> Cuntil (Rng.float rng 50_000.))
      in
      run_script ~sched:Sim.Heap cmds = run_script ~sched:Sim.Wheel cmds)

(* A cancel-heavy load (well over half of everything scheduled dies before
   firing) stresses the wheel's slot compaction and the freelist's
   all-dummy invariant on recycled slot arrays. *)
let cancel_heavy_differential =
  QCheck.Test.make ~name:"sim: >=50% cancelled fires like the heap" ~count:10
    QCheck.small_int (fun seed ->
      let rng = Rng.create ~seed:(seed + 43) in
      let cmds =
        List.concat
          (List.init 500 (fun _ ->
               let delay =
                 match Rng.int rng 3 with
                 | 0 -> float_of_int (Rng.int rng 20)
                 | 1 -> float_of_int (Rng.int rng 1000) *. 1e-7
                 | _ -> Rng.float rng 50.
               in
               (* Schedule, then 60% of the time cancel that same event
                  ([Ccancel 0] targets the newest handle) plus sometimes a
                  random older one: most of the population dies unfired. *)
               Csched delay
               :: (if Rng.int rng 10 < 6 then
                     Ccancel 0
                     :: (if Rng.int rng 4 = 0 then [ Ccancel (Rng.int rng 1_000_000) ] else [])
                   else [])))
      in
      let fired_h, now_h, pending_h = run_script ~sched:Sim.Heap cmds in
      let fired_w, now_w, pending_w = run_script ~sched:Sim.Wheel cmds in
      let total = 500 in
      List.length fired_h * 2 <= total
      && fired_h = fired_w && now_h = now_w && pending_h = pending_w)

(* [run ~until] horizons that land between wheel ticks (sub-microsecond
   fractions) must stop the wheel mid-tick exactly where the heap stops. *)
let until_mid_tick_differential =
  QCheck.Test.make ~name:"sim: run ~until mid-tick stops like the heap" ~count:10
    QCheck.small_int (fun seed ->
      let run sched =
        (* A fresh identically-seeded rng per run: both schedulers must see
           the exact same script. *)
        let rng = Rng.create ~seed:(seed + 87) in
        let sim = Sim.create ~sched () in
        let fired = ref [] in
        (* Sub-tick offsets around whole-microsecond boundaries. *)
        List.iter
          (fun (t, k) -> ignore (Sim.schedule_at sim ~time:t (fun () -> fired := (Sim.now sim, k) :: !fired)))
          (List.init 400 (fun k ->
               (float_of_int (Rng.int rng 50) *. 1e-6 +. float_of_int (Rng.int rng 10) *. 1e-7, k)));
        let marks = ref [] in
        for _ = 1 to 30 do
          let upto = float_of_int (Rng.int rng 50) *. 1e-6 +. float_of_int (Rng.int rng 10) *. 1e-7 in
          if upto >= Sim.now sim then begin
            Sim.run ~until:upto sim;
            marks := (Sim.now sim, List.length !fired) :: !marks
          end
        done;
        Sim.run sim;
        (List.rev !fired, !marks, Sim.now sim)
      in
      run Sim.Heap = run Sim.Wheel)

let sched_of_string_roundtrip () =
  Alcotest.(check bool) "heap" true (Sim.sched_of_string "heap" = Ok Sim.Heap);
  Alcotest.(check bool) "wheel" true (Sim.sched_of_string "wheel" = Ok Sim.Wheel);
  (match Sim.sched_of_string "calendar" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error");
  Alcotest.(check bool) "auto small" true (Sim.recommended_sched ~expected_pending:100 = Sim.Heap);
  Alcotest.(check bool) "auto large" true
    (Sim.recommended_sched ~expected_pending:100_000 = Sim.Wheel)

(* --- Rng ------------------------------------------------------------- *)

let rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different streams" false (Int64.equal (Rng.bits64 a) (Rng.bits64 b))

let rng_split_independent () =
  let a = Rng.create ~seed:1 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.bits64 a) in
  let ys = List.init 10 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "streams differ" false (xs = ys)

let rng_float_in_range =
  QCheck.Test.make ~name:"rng: float stays in [0, bound)" ~count:200
    QCheck.(pair small_int (float_range 0.001 1000.))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let x = Rng.float rng bound in
      x >= 0. && x < bound)

let rng_int_in_range =
  QCheck.Test.make ~name:"rng: int stays in [0, bound)" ~count:200
    QCheck.(pair small_int (int_range 1 100000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let rng_exponential_positive () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 1000 do
    if Rng.exponential rng ~mean:0.5 < 0. then Alcotest.fail "negative exponential"
  done

let rng_exponential_mean_approx () =
  let rng = Rng.create ~seed:11 in
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean within 5%" true (Float.abs (mean -. 2.0) < 0.1)

let rng_bytes_length () =
  let rng = Rng.create ~seed:3 in
  Alcotest.(check int) "length" 33 (String.length (Rng.bytes rng 33))

(* Bank lane [i] must replay [Rng.lane ~seed i] bit-for-bit: the
   aggregate-sender equivalence (Swarm vs real flooders) rests on it. *)
let bank_matches_lane () =
  let seed = 77 and n = 5 in
  let bank = Rng.Bank.create ~seed ~n in
  for i = 0 to n - 1 do
    let r = Rng.lane ~seed i in
    for draw = 0 to 99 do
      Alcotest.(check int64)
        (Printf.sprintf "lane %d draw %d" i draw)
        (Rng.bits64 r) (Rng.Bank.bits64 bank i)
    done
  done;
  (* The float mapping matches the scalar one too. *)
  let r = Rng.lane ~seed n in
  let bank2 = Rng.Bank.create ~seed ~n:(n + 1) in
  for _ = 0 to 49 do
    Alcotest.(check (float 0.)) "float mapping" (Rng.float r 3.5) (Rng.Bank.float bank2 n 3.5)
  done

(* --- auxiliary (telemetry) events ---------------------------------------- *)

(* schedule_aux's two contracts: at equal time the aux event fires before
   every normal event (the "all events < T fired, none at T" observation
   cut), and scheduling aux events never consumes a normal sequence
   number, so the normal events' tie order is exactly what it would be
   without them. *)
let aux_fires_first_and_does_not_perturb () =
  let run ~with_aux =
    let sim = Sim.create () in
    let order = ref [] in
    let note name () = order := name :: !order in
    ignore (Sim.schedule_at sim ~time:1. (note "n1"));
    if with_aux then ignore (Sim.schedule_aux sim ~time:1. (note "aux1"));
    ignore (Sim.schedule_at sim ~time:1. (note "n2"));
    if with_aux then ignore (Sim.schedule_aux sim ~time:2. (note "aux2"));
    (* same-time ties scheduled from inside handlers keep their relative
       order too *)
    ignore
      (Sim.schedule_at sim ~time:2. (fun () ->
           note "n3" ();
           ignore (Sim.schedule_at sim ~time:2. (note "n4"))));
    Sim.run sim;
    List.rev !order
  in
  Alcotest.(check (list string))
    "aux events fire before same-time normal events"
    [ "aux1"; "n1"; "n2"; "aux2"; "n3"; "n4" ]
    (run ~with_aux:true);
  let strip = List.filter (fun n -> not (String.length n >= 3 && String.sub n 0 3 = "aux")) in
  Alcotest.(check (list string))
    "normal order identical with aux stripped"
    (run ~with_aux:false)
    (strip (run ~with_aux:true))

(* A self-rearming aux chain (how Timeseries.attach drives ticks): later
   aux events keep firing first at each time point, and the chain observes
   the pre-T state — handlers at T run after the tick at T. *)
let aux_chain_observes_cut () =
  let sim = Sim.create () in
  let v = ref 0 in
  let seen = ref [] in
  let rec tick k =
    if k <= 4 then
      ignore
        (Sim.schedule_aux sim ~time:(float_of_int k) (fun () ->
             seen := !v :: !seen;
             tick (k + 1)))
  in
  tick 1;
  (* v increments at each integer time via normal events; the aux tick at
     the same time must read the value from before the increment *)
  for k = 1 to 4 do
    ignore (Sim.schedule_at sim ~time:(float_of_int k) (fun () -> incr v))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "each tick sees pre-T state" [ 0; 1; 2; 3 ] (List.rev !seen)

(* --- reserved keys ---------------------------------------------------- *)

(* [Sim.reserve] + [Sim.schedule_reserved] as the link transmitter uses
   them: a FIFO ring of events due a constant [delay] after their
   reservation, with only the ring's head queued, interleaved with plain
   events, cancels, steps and horizons.  Run once with every ring event
   scheduled at reservation time instead; both runs must fire the same
   events at the same times and agree on [pending] after every command
   and on [events_processed]. *)
type rcmd = Rplain of float | Rring | Rcancel of int | Rstep | Runtil of float

let gen_reserved_script seed n =
  let rng = Rng.create ~seed in
  List.init n (fun _ ->
      match Rng.int rng 10 with
      | 0 | 1 | 2 ->
          Rplain
            (match Rng.int rng 3 with
            | 0 -> float_of_int (Rng.int rng 4) *. 0.5 (* ties with ring due times *)
            | 1 -> float_of_int (Rng.int rng 1000) *. 1e-7
            | _ -> Rng.float rng 3.)
      | 3 | 4 | 5 -> Rring
      | 6 -> Rcancel (Rng.int rng 1_000_000)
      | 7 | 8 -> Rstep
      | _ -> Runtil (Rng.float rng 1.))

let run_reserved_script ~sched ~delay ~reserved cmds =
  let sim = Sim.create ~sched () in
  let fired = ref [] in
  let stamp = ref 0 in
  let handles = ref [] in
  let n_handles = ref 0 in
  let pendings = ref [] in
  let log k () = fired := (Sim.now sim, k) :: !fired in
  let ring = Queue.create () in
  let rec fire_head () =
    let _, _, k = Queue.pop ring in
    (match Queue.peek_opt ring with
    | Some (time, seq, _) -> ignore (Sim.schedule_reserved sim ~time ~seq fire_head)
    | None -> ());
    log k ()
  in
  List.iter
    (fun cmd ->
      (match cmd with
      | Rplain d ->
          let k = !stamp in
          incr stamp;
          handles := Sim.schedule sim ~delay:d (log k) :: !handles;
          incr n_handles
      | Rring ->
          let k = !stamp in
          incr stamp;
          let time = Sim.now sim +. delay in
          if reserved then begin
            let seq = Sim.reserve sim in
            Queue.push (time, seq, k) ring;
            if Queue.length ring = 1 then ignore (Sim.schedule_reserved sim ~time ~seq fire_head)
          end
          else ignore (Sim.schedule_at sim ~time (log k))
      | Rcancel i -> if !n_handles > 0 then Sim.cancel (List.nth !handles (i mod !n_handles))
      | Rstep -> ignore (Sim.step sim)
      | Runtil d -> Sim.run ~until:(Sim.now sim +. d) sim);
      pendings := Sim.pending sim :: !pendings)
    cmds;
  Sim.run sim;
  (List.rev !fired, Sim.now sim, List.rev !pendings, Sim.events_processed sim, Sim.pending sim)

let reserved_keys_fire_like_immediate =
  QCheck.Test.make ~name:"sim: reserved ring keys fire like immediate scheduling" ~count:20
    QCheck.small_int (fun seed ->
      let cmds = gen_reserved_script (seed + 5) 1500 in
      List.for_all
        (fun (sched, delay) ->
          let reference = run_reserved_script ~sched ~delay ~reserved:false cmds in
          reference = run_reserved_script ~sched ~delay ~reserved:true cmds
          && reference = run_reserved_script ~sched:Sim.Heap ~delay ~reserved:false cmds)
        [ (Sim.Heap, 0.5); (Sim.Wheel, 0.5); (Sim.Heap, 0.); (Sim.Wheel, 0.); (Sim.Wheel, 3e-7) ])

let schedule_reserved_rejects_past () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim ~time:1. ignore);
  Sim.run sim;
  let seq = Sim.reserve sim in
  Alcotest.(check int) "reserve counts pending" 1 (Sim.pending sim);
  (match Sim.schedule_reserved sim ~time:0.5 ~seq ignore with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "past reserved time accepted");
  ignore (Sim.schedule_reserved sim ~time:1. ~seq ignore);
  Alcotest.(check int) "schedule_reserved adds none" 1 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "fired" 2 (Sim.events_processed sim);
  Alcotest.(check int) "drained" 0 (Sim.pending sim)

(* The cancelled sentinel: [cancelled] is false while queued and true once
   cancelled or fired; a second cancel, or a cancel after firing, changes
   neither [pending] nor what fires. *)
let cancel_sentinel_semantics () =
  List.iter
    (fun sched ->
      let sim = Sim.create ~sched () in
      let fired = ref [] in
      let h1 = Sim.schedule_at sim ~time:1. (fun () -> fired := 1 :: !fired) in
      let h2 = Sim.schedule_at sim ~time:2. (fun () -> fired := 2 :: !fired) in
      let h3 = Sim.schedule_at sim ~time:3. (fun () -> fired := 3 :: !fired) in
      Alcotest.(check bool) "queued" false (Sim.cancelled h1);
      Sim.cancel h2;
      Sim.cancel h2;
      Alcotest.(check bool) "cancelled" true (Sim.cancelled h2);
      Alcotest.(check int) "double cancel counted once" 2 (Sim.pending sim);
      Alcotest.(check bool) "step" true (Sim.step sim);
      Alcotest.(check bool) "fired reads as cancelled" true (Sim.cancelled h1);
      Sim.cancel h1;
      Alcotest.(check int) "cancel after fire is a no-op" 1 (Sim.pending sim);
      Sim.run sim;
      Alcotest.(check (list int)) "fired" [ 1; 3 ] (List.rev !fired);
      Alcotest.(check bool) "last fired" true (Sim.cancelled h3);
      Alcotest.(check int) "events" 2 (Sim.events_processed sim);
      Alcotest.(check int) "none pending" 0 (Sim.pending sim))
    [ Sim.Heap; Sim.Wheel ]

let suite =
  [
    Alcotest.test_case "time order" `Quick events_fire_in_time_order;
    Alcotest.test_case "tie order" `Quick ties_break_by_scheduling_order;
    Alcotest.test_case "clock" `Quick clock_advances_to_event_time;
    Alcotest.test_case "cancel" `Quick cancelled_events_do_not_fire;
    Alcotest.test_case "cancel idempotent" `Quick cancel_is_idempotent;
    Alcotest.test_case "pending count" `Quick pending_counts_live_events;
    Alcotest.test_case "run until" `Quick run_until_stops_at_horizon;
    Alcotest.test_case "schedule during run" `Quick events_scheduled_during_run_fire;
    Alcotest.test_case "stop" `Quick stop_halts_processing;
    Alcotest.test_case "past rejected" `Quick scheduling_in_past_rejected;
    Alcotest.test_case "step" `Quick step_processes_one_event;
    QCheck_alcotest.to_alcotest heap_survives_many_events;
    QCheck_alcotest.to_alcotest heap_order_under_random_schedule_cancel;
    QCheck_alcotest.to_alcotest wheel_matches_heap_differential;
    Alcotest.test_case "wheel overflow order" `Quick wheel_overflow_far_future;
    Alcotest.test_case "wheel behind-tick schedule" `Quick wheel_schedule_behind_advanced_tick;
    Alcotest.test_case "wheel tie fifo" `Quick wheel_tie_break_fifo;
    QCheck_alcotest.to_alcotest beyond_horizon_differential;
    QCheck_alcotest.to_alcotest cancel_heavy_differential;
    QCheck_alcotest.to_alcotest until_mid_tick_differential;
    Alcotest.test_case "aux fires first, no perturbation" `Quick
      aux_fires_first_and_does_not_perturb;
    Alcotest.test_case "aux chain observes cut" `Quick aux_chain_observes_cut;
    QCheck_alcotest.to_alcotest reserved_keys_fire_like_immediate;
    Alcotest.test_case "schedule_reserved" `Quick schedule_reserved_rejects_past;
    Alcotest.test_case "cancel sentinel" `Quick cancel_sentinel_semantics;
    Alcotest.test_case "sched selection" `Quick sched_of_string_roundtrip;
    Alcotest.test_case "rng deterministic" `Quick rng_deterministic;
    Alcotest.test_case "rng seeds differ" `Quick rng_seeds_differ;
    Alcotest.test_case "rng split" `Quick rng_split_independent;
    QCheck_alcotest.to_alcotest rng_float_in_range;
    QCheck_alcotest.to_alcotest rng_int_in_range;
    Alcotest.test_case "rng exponential positive" `Quick rng_exponential_positive;
    Alcotest.test_case "rng exponential mean" `Quick rng_exponential_mean_approx;
    Alcotest.test_case "rng bytes" `Quick rng_bytes_length;
    Alcotest.test_case "rng bank = rng lane" `Quick bank_matches_lane;
  ]
