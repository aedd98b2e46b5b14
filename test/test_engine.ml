(* The event loop: ordering, cancellation, horizons, and the deterministic
   PRNG everything else builds on. *)

let events_fire_in_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule_at sim ~time:3. (fun () -> log := 3 :: !log);
  Sim.schedule_at sim ~time:1. (fun () -> log := 1 :: !log);
  Sim.schedule_at sim ~time:2. (fun () -> log := 2 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log)

let ties_break_by_scheduling_order () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Sim.schedule_at sim ~time:1. (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo ties" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log)

let clock_advances_to_event_time () =
  let sim = Sim.create () in
  Sim.schedule_at sim ~time:5. (fun () -> Alcotest.(check (float 1e-9)) "now" 5. (Sim.now sim));
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "final clock" 5. (Sim.now sim)

let cancelled_events_do_not_fire () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.timer_at sim ~time:1. (fun () -> fired := true) in
  Sim.cancel h;
  Alcotest.(check bool) "cancelled" true (Sim.cancelled h);
  Sim.run sim;
  Alcotest.(check bool) "did not fire" false !fired

let cancel_is_idempotent () =
  let sim = Sim.create () in
  let h = Sim.timer_at sim ~time:1. (fun () -> ()) in
  Sim.cancel h;
  Sim.cancel h;
  Alcotest.(check int) "pending" 0 (Sim.pending sim)

let pending_counts_live_events () =
  let sim = Sim.create () in
  let h1 = Sim.timer_at sim ~time:1. (fun () -> ()) in
  Sim.schedule_at sim ~time:2. (fun () -> ());
  Alcotest.(check int) "two pending" 2 (Sim.pending sim);
  Sim.cancel h1;
  Alcotest.(check int) "one pending" 1 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "none pending" 0 (Sim.pending sim)

let run_until_stops_at_horizon () =
  let sim = Sim.create () in
  let fired = ref [] in
  Sim.schedule_at sim ~time:1. (fun () -> fired := 1 :: !fired);
  Sim.schedule_at sim ~time:10. (fun () -> fired := 10 :: !fired);
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
      Sim.schedule sim ~delay:1. (fun () ->
          incr count;
          chain (n - 1))
  in
  chain 5;
  Sim.run sim;
  Alcotest.(check int) "chained" 5 !count;
  Alcotest.(check (float 1e-9)) "clock" 5. (Sim.now sim)

let stop_halts_processing () =
  let sim = Sim.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Sim.schedule sim ~delay:1. (fun () ->
        incr count;
        if !count = 3 then Sim.stop sim)
  done;
  Sim.run sim;
  Alcotest.(check int) "stopped at 3" 3 !count

let scheduling_in_past_rejected () =
  let sim = Sim.create () in
  Sim.schedule_at sim ~time:5. (fun () -> ());
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
  Sim.schedule_at sim ~time:1. (fun () -> incr count);
  Sim.schedule_at sim ~time:2. (fun () -> incr count);
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
      List.iter (fun t -> Sim.schedule_at sim ~time:t (fun () -> fired := t :: !fired)) times;
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
            let h = Sim.timer sim ~delay (fun () -> fired := (Sim.now sim, k) :: !fired) in
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

(* --- Differential test against the (time, seq) map oracle ------------- *)

(* One command script runs on [Sim] and on [Sim_oracle] through the same
   [Drive] functor; both must fire the same events at the same times and agree on
   [now], [pending] and [events_processed] after every command.  Scripts
   mix plain, timer, burst, auxiliary and reserved-ring scheduling with
   cancels, single steps and horizons.  A [Schedule] with [chain] set
   schedules a zero-delay follow-up from inside its handler, so ties are
   also created mid-run. *)
type cmd =
  | Schedule of float * bool (* delay, chain *)
  | Timer of float (* delay; the handle joins the cancel pool *)
  | Burst of int * float (* [n] events at one time, [delay] ahead *)
  | Aux of float
  | Ring (* reserve now, due the script's ring delay later *)
  | Cancel of int (* a pool handle, newest first, index mod pool size *)
  | Step
  | Until of float

module type SIM = sig
  type t
  type handle

  val create : unit -> t
  val now : t -> float
  val schedule : t -> delay:float -> (unit -> unit) -> unit
  val schedule_at : t -> time:float -> (unit -> unit) -> unit
  val timer : t -> delay:float -> (unit -> unit) -> handle
  val reserve : t -> int
  val schedule_reserved : t -> time:float -> seq:int -> (unit -> unit) -> unit
  val schedule_aux : t -> time:float -> (unit -> unit) -> unit
  val cancel : handle -> unit
  val step : t -> bool
  val run : ?until:float -> t -> unit
  val pending : t -> int
  val events_processed : t -> int
end

module Real : SIM = struct
  include Sim

  let create () = Sim.create ()
  let schedule t ~delay f = Sim.schedule t ~delay f
  let schedule_at t ~time f = Sim.schedule_at t ~time f
  let timer t ~delay f = Sim.timer t ~delay f
  let schedule_reserved t ~time ~seq f = Sim.schedule_reserved t ~time ~seq f
  let schedule_aux t ~time f = Sim.schedule_aux t ~time f
end

module Drive (S : SIM) = struct
  let run ~ring_delay cmds =
    let sim = S.create () in
    let fired = ref [] and states = ref [] in
    let stamp = ref 0 in
    let fresh () =
      incr stamp;
      !stamp
    in
    let note k () = fired := (k, S.now sim) :: !fired in
    let pool = ref [] and pool_size = ref 0 in
    (* The link transmitter's pattern: a FIFO ring of reserved keys with
       only its head queued. *)
    let ring = Queue.create () in
    let rec fire_head () =
      let _, _, k = Queue.pop ring in
      (match Queue.peek_opt ring with
      | Some (time, seq, _) -> S.schedule_reserved sim ~time ~seq fire_head
      | None -> ());
      note k ()
    in
    List.iter
      (fun cmd ->
        (match cmd with
        | Schedule (delay, chain) ->
            let k = fresh () in
            S.schedule sim ~delay (fun () ->
                note k ();
                if chain then S.schedule sim ~delay:0. (note (fresh ())))
        | Timer delay ->
            pool := S.timer sim ~delay (note (fresh ())) :: !pool;
            incr pool_size
        | Burst (n, delay) ->
            let time = S.now sim +. delay in
            for _ = 1 to n do
              S.schedule_at sim ~time (note (fresh ()))
            done
        | Aux delay -> S.schedule_aux sim ~time:(S.now sim +. delay) (note (fresh ()))
        | Ring ->
            let time = S.now sim +. ring_delay and seq = S.reserve sim in
            Queue.push (time, seq, fresh ()) ring;
            if Queue.length ring = 1 then S.schedule_reserved sim ~time ~seq fire_head
        | Cancel i -> if !pool_size > 0 then S.cancel (List.nth !pool (i mod !pool_size))
        | Step -> ignore (S.step sim)
        | Until d -> S.run ~until:(S.now sim +. d) sim);
        states := (S.now sim, S.pending sim, S.events_processed sim) :: !states)
      cmds;
    S.run sim;
    (List.rev !fired, List.rev !states, S.now sim, S.pending sim, S.events_processed sim)
end

module Drive_real = Drive (Real)
module Drive_oracle = Drive (Sim_oracle)

let print_cmd = function
  | Schedule (d, c) -> Printf.sprintf "Schedule (%h, %b)" d c
  | Timer d -> Printf.sprintf "Timer %h" d
  | Burst (n, d) -> Printf.sprintf "Burst (%d, %h)" n d
  | Aux d -> Printf.sprintf "Aux %h" d
  | Ring -> "Ring"
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Step -> "Step"
  | Until d -> Printf.sprintf "Until %h" d

(* A script and its ring delay, shrinkable as a command list. *)
let script_arb ~len delay_gen =
  let open QCheck in
  let gen =
    Gen.(
      pair (oneofl [ 0.; 0.5; 3e-7 ])
        (list_size (int_range 1 len)
           (frequency
              [
                (4, map2 (fun d c -> Schedule (d, c)) delay_gen (map (fun n -> n = 0) (int_bound 4)));
                (3, map (fun d -> Timer d) delay_gen);
                (1, map2 (fun n d -> Burst (n, d)) (int_range 2 12) delay_gen);
                (1, map (fun d -> Aux d) delay_gen);
                (2, return Ring);
                (2, map (fun i -> Cancel i) (int_bound 1_000_000));
                (3, return Step);
                (1, map (fun d -> Until d) delay_gen);
              ])))
  in
  make
    ~print:(fun (rd, cmds) ->
      Printf.sprintf "ring delay %h: [%s]" rd (String.concat "; " (List.map print_cmd cmds)))
    ~shrink:Shrink.(pair nil list)
    gen

let matches_oracle (ring_delay, cmds) =
  Drive_real.run ~ring_delay cmds = Drive_oracle.run ~ring_delay cmds

(* Delays with heavy ties: zero, whole seconds, tenths, sub-microsecond
   offsets and arbitrary floats. *)
let mixed_delay =
  QCheck.Gen.(
    frequency
      [
        (1, return 0.);
        (2, map float_of_int (int_bound 19));
        (2, map (fun n -> float_of_int n /. 10.) (int_bound 49));
        (2, map (fun n -> float_of_int n *. 1e-7) (int_bound 999));
        (2, float_bound_exclusive 10.);
      ])

let oracle_differential =
  QCheck.Test.make ~name:"sim: fires like the (time, seq) oracle" ~count:200
    (script_arb ~len:400 mixed_delay) matches_oracle

(* Far-future and infinite times mixed with near-term ties: everything
   still fires in (time, seq) order, and an [infinity] event advances the
   clock to [infinity]. *)
let far_future_differential =
  QCheck.Test.make ~name:"sim: far-future/infinity like oracle" ~count:100
    (script_arb ~len:300
       QCheck.Gen.(
         frequency
           [
             (3, map float_of_int (int_bound 20));
             (2, float_bound_exclusive 1e6);
             (1, map (fun n -> 4e12 +. float_of_int n) (int_bound 3));
             (1, return infinity);
           ]))
    matches_oracle

(* Sub-microsecond spacing with horizons of the same scale: [run ~until]
   stops between closely spaced events exactly where the oracle does. *)
let dense_until_differential =
  QCheck.Test.make ~name:"sim: dense run ~until stops like oracle" ~count:100
    (script_arb ~len:300 QCheck.Gen.(map (fun n -> float_of_int n *. 1e-7) (int_bound 30)))
    matches_oracle

(* Most of what is scheduled dies before firing: each timer is cancelled
   at once 60% of the time, sometimes with a random older one too. *)
let cancel_heavy_differential =
  QCheck.Test.make ~name:"sim: >=50% cancelled fires like oracle" ~count:50 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 43) in
      let total = 500 in
      let cmds =
        List.concat
          (List.init total (fun _ ->
               let delay =
                 match Rng.int rng 3 with
                 | 0 -> float_of_int (Rng.int rng 20)
                 | 1 -> float_of_int (Rng.int rng 1000) *. 1e-7
                 | _ -> Rng.float rng 50.
               in
               Timer delay
               :: (if Rng.int rng 10 < 6 then
                     Cancel 0 :: (if Rng.int rng 4 = 0 then [ Cancel (Rng.int rng 1_000_000) ] else [])
                   else [])
               @ if Rng.int rng 8 = 0 then [ Step ] else []))
      in
      let ((fired, _, _, _, _) as real) = Drive_real.run ~ring_delay:0. cmds in
      List.length fired * 2 <= total && real = Drive_oracle.run ~ring_delay:0. cmds)

(* NaN compares false with everything, so a NaN key would silently break
   heap order: every scheduling entry point rejects it, consuming nothing. *)
let nan_rejected () =
  let sim = Sim.create () in
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s accepted NaN" name
  in
  rejects "schedule_at" (fun () -> Sim.schedule_at sim ~time:nan ignore);
  rejects "schedule" (fun () -> Sim.schedule sim ~delay:nan ignore);
  rejects "timer_at" (fun () -> ignore (Sim.timer_at sim ~time:nan ignore));
  rejects "timer" (fun () -> ignore (Sim.timer sim ~delay:nan ignore));
  rejects "schedule_aux" (fun () -> Sim.schedule_aux sim ~time:nan ignore);
  let seq = Sim.reserve sim in
  rejects "schedule_reserved" (fun () -> Sim.schedule_reserved sim ~time:nan ~seq ignore);
  Sim.schedule_reserved sim ~time:1. ~seq ignore;
  Alcotest.(check int) "only the reservation pending" 1 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "fired" 1 (Sim.events_processed sim);
  Alcotest.(check (float 0.)) "clock" 1. (Sim.now sim)

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
    Sim.schedule_at sim ~time:1. (note "n1");
    if with_aux then Sim.schedule_aux sim ~time:1. (note "aux1");
    Sim.schedule_at sim ~time:1. (note "n2");
    if with_aux then Sim.schedule_aux sim ~time:2. (note "aux2");
    (* same-time ties scheduled from inside handlers keep their relative
       order too *)
    Sim.schedule_at sim ~time:2. (fun () ->
        note "n3" ();
        Sim.schedule_at sim ~time:2. (note "n4"));
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
      Sim.schedule_aux sim ~time:(float_of_int k) (fun () ->
          seen := !v :: !seen;
          tick (k + 1))
  in
  tick 1;
  (* v increments at each integer time via normal events; the aux tick at
     the same time must read the value from before the increment *)
  for k = 1 to 4 do
    Sim.schedule_at sim ~time:(float_of_int k) (fun () -> incr v)
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

let run_reserved_script ~delay ~reserved cmds =
  let sim = Sim.create () in
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
    | Some (time, seq, _) -> Sim.schedule_reserved sim ~time ~seq fire_head
    | None -> ());
    log k ()
  in
  List.iter
    (fun cmd ->
      (match cmd with
      | Rplain d ->
          let k = !stamp in
          incr stamp;
          handles := Sim.timer sim ~delay:d (log k) :: !handles;
          incr n_handles
      | Rring ->
          let k = !stamp in
          incr stamp;
          let time = Sim.now sim +. delay in
          if reserved then begin
            let seq = Sim.reserve sim in
            Queue.push (time, seq, k) ring;
            if Queue.length ring = 1 then Sim.schedule_reserved sim ~time ~seq fire_head
          end
          else Sim.schedule_at sim ~time (log k)
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
        (fun delay ->
          run_reserved_script ~delay ~reserved:false cmds
          = run_reserved_script ~delay ~reserved:true cmds)
        [ 0.5; 0.; 3e-7 ])

let schedule_reserved_rejects_past () =
  let sim = Sim.create () in
  Sim.schedule_at sim ~time:1. ignore;
  Sim.run sim;
  let seq = Sim.reserve sim in
  Alcotest.(check int) "reserve counts pending" 1 (Sim.pending sim);
  (match Sim.schedule_reserved sim ~time:0.5 ~seq ignore with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "past reserved time accepted");
  Sim.schedule_reserved sim ~time:1. ~seq ignore;
  Alcotest.(check int) "schedule_reserved adds none" 1 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "fired" 2 (Sim.events_processed sim);
  Alcotest.(check int) "drained" 0 (Sim.pending sim)

(* The cancelled sentinel: [cancelled] is false while queued and true once
   cancelled or fired; a second cancel, or a cancel after firing, changes
   neither [pending] nor what fires. *)
let cancel_sentinel_semantics () =
  let sim = Sim.create () in
  let fired = ref [] in
  let h1 = Sim.timer_at sim ~time:1. (fun () -> fired := 1 :: !fired) in
  let h2 = Sim.timer_at sim ~time:2. (fun () -> fired := 2 :: !fired) in
  let h3 = Sim.timer_at sim ~time:3. (fun () -> fired := 3 :: !fired) in
  Alcotest.(check bool) "queued" false (Sim.cancelled h1);
  Sim.cancel h2;
  Sim.cancel h2;
  Alcotest.(check bool) "cancelled" true (Sim.cancelled h2);
  Alcotest.(check int) "double cancel counted once" 2 (Sim.pending sim);
  Alcotest.(check bool) "step" true (Sim.step sim);
  Alcotest.(check bool) "fired reads as cancelled" true (Sim.cancelled h1);
  Sim.cancel h1;
  Alcotest.(check int) "cancel after fire is a no-op" 1 (Sim.pending sim);
  (* h1's slot is free again: a new event reuses it, and h1's stale
     handle must neither see nor cancel it. *)
  let h4 = Sim.timer_at sim ~time:4. (fun () -> fired := 4 :: !fired) in
  Alcotest.(check bool) "stale handle still reads fired" true (Sim.cancelled h1);
  Sim.cancel h1;
  Alcotest.(check bool) "reused slot untouched" false (Sim.cancelled h4);
  Sim.run sim;
  Alcotest.(check (list int)) "fired" [ 1; 3; 4 ] (List.rev !fired);
  Alcotest.(check bool) "last fired" true (Sim.cancelled h3);
  Alcotest.(check int) "events" 3 (Sim.events_processed sim);
  Alcotest.(check int) "none pending" 0 (Sim.pending sim)

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
    QCheck_alcotest.to_alcotest oracle_differential;
    QCheck_alcotest.to_alcotest far_future_differential;
    QCheck_alcotest.to_alcotest dense_until_differential;
    QCheck_alcotest.to_alcotest cancel_heavy_differential;
    Alcotest.test_case "nan rejected" `Quick nan_rejected;
    Alcotest.test_case "aux fires first, no perturbation" `Quick
      aux_fires_first_and_does_not_perturb;
    Alcotest.test_case "aux chain observes cut" `Quick aux_chain_observes_cut;
    QCheck_alcotest.to_alcotest reserved_keys_fire_like_immediate;
    Alcotest.test_case "schedule_reserved" `Quick schedule_reserved_rejects_past;
    Alcotest.test_case "cancel sentinel" `Quick cancel_sentinel_semantics;
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
