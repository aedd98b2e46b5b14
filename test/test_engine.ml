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

(* Guards the binary heap: 10k random schedule/cancel/step operations, then
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
   mix plain, timer, burst, auxiliary and constant-delay lane scheduling
   with cancels, single steps and horizons; the oracle's lane event is
   plain [schedule ~delay].  A [Schedule] with [chain] set schedules a
   zero-delay follow-up from inside its handler, and a [Lane] with
   [chain] set schedules on the next lane from inside its lane's action
   (on itself when there is one lane), so ties and lane entries are also
   created mid-run.  A lane event's member carries its stamp and its
   chain flag. *)
type cmd =
  | Schedule of float * bool (* delay, chain *)
  | Timer of float (* delay; the handle joins the cancel pool *)
  | Burst of int * float (* [n] events at one time, [delay] ahead *)
  | Aux of float
  | Lane of int * bool (* a script lane, index mod lane count; chain *)
  | Cancel of int (* a pool handle, newest first, index mod pool size *)
  | Step
  | Until of float
  | Source of int * int * float * src_step list
      (** arm member [m] of group [g] after a delay, appending to its plan *)

(* What a source member does on each fire, in order: arm member [m + 1]
   of the other group at the same instant ([spawn]), then re-arm itself
   ([Some delay]) or stop ([None]).  A member past its plan stops. *)
and src_step = { again : float option; spawn : bool }

module type SIM = sig
  type t
  type handle

  val create : unit -> t
  val now : t -> float
  val schedule : t -> delay:float -> (unit -> unit) -> unit
  val schedule_at : t -> time:float -> (unit -> unit) -> unit
  val timer : t -> delay:float -> (unit -> unit) -> handle
  type lane

  val lane : t -> delay:float -> (int -> unit) -> lane
  val lane_schedule : lane -> int -> unit
  val schedule_aux : t -> time:float -> (unit -> unit) -> unit

  type group

  val group : t -> (int -> unit) -> group
  val source_at : group -> member:int -> time:float -> unit
  val rearm : t -> delay:float -> unit
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
  let lane t ~delay f = Sim.lane t ~delay f
  let schedule_aux t ~time f = Sim.schedule_aux t ~time f
  let group t f = Sim.group t f
end

module Drive (S : SIM) = struct
  let run ~lane_delays cmds =
    let sim = S.create () in
    let fired = ref [] and states = ref [] in
    let stamp = ref 0 in
    let fresh () =
      incr stamp;
      !stamp
    in
    let note k () = fired := (k, S.now sim) :: !fired in
    let pool = ref [] and pool_size = ref 0 in
    (* Lane [i]'s member [2 k + c] notes stamp [k] and, when [c] is 1,
       chains a fresh stamp onto lane [i + 1]. *)
    let n_lanes = List.length lane_delays and lanes = ref [||] in
    let lane_fires i m =
      note (m lsr 1) ();
      if m land 1 = 1 then S.lane_schedule !lanes.((i + 1) mod n_lanes) (fresh () lsl 1)
    in
    lanes := Array.of_list (List.mapi (fun i delay -> S.lane sim ~delay (lane_fires i)) lane_delays);
    (* Two source groups; a member's fire is noted as a key naming it. *)
    let plans = Hashtbl.create 16 and groups = ref [||] in
    let member_fires g m =
      note ((1_000_000 * (g + 1)) + m) ();
      match Hashtbl.find_opt plans (g, m) with
      | Some ({ again; spawn } :: rest) ->
          Hashtbl.replace plans (g, m) rest;
          if spawn then S.source_at !groups.(1 - g) ~member:(m + 1) ~time:(S.now sim);
          Option.iter (fun delay -> S.rearm sim ~delay) again
      | Some [] | None -> ()
    in
    groups := [| S.group sim (member_fires 0); S.group sim (member_fires 1) |];
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
        | Lane (i, chain) ->
            S.lane_schedule !lanes.(i mod n_lanes) ((fresh () lsl 1) lor Bool.to_int chain)
        | Cancel i -> if !pool_size > 0 then S.cancel (List.nth !pool (i mod !pool_size))
        | Step -> ignore (S.step sim)
        | Until d -> S.run ~until:(S.now sim +. d) sim
        | Source (g, m, delay, plan) ->
            let old = Option.value ~default:[] (Hashtbl.find_opt plans (g, m)) in
            Hashtbl.replace plans (g, m) (old @ plan);
            S.source_at !groups.(g) ~member:m ~time:(S.now sim +. delay));
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
  | Lane (i, c) -> Printf.sprintf "Lane (%d, %b)" i c
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Step -> "Step"
  | Until d -> Printf.sprintf "Until %h" d
  | Source (g, m, d, plan) ->
      Printf.sprintf "Source (%d, %d, %h, [%s])" g m d
        (String.concat "; "
           (List.map
              (fun { again; spawn } ->
                Printf.sprintf "%s%s"
                  (match again with Some d -> Printf.sprintf "again %h" d | None -> "stop")
                  (if spawn then " +spawn" else ""))
              plan))

(* A script and its 1 to 64 lane delays, shrinkable as a command list.
   Lane delays are often [0.], [0.5], [1.] or shared with the script's
   own delays, so lane heads tie with plain events and, scheduled at
   different times, with each other's heads; half the scripts repeat
   their first lane's delay on a last lane, so two lanes share one delay.
   Most [Lane] commands pick one of the first four lanes, so those fill
   while the rest hold an entry or two and drain and refill between
   steps, and the lane heap both re-keys and removes its root.  [Source]
   commands arm members 0..5 of two groups with plans of up to five
   fires: re-arms (often at delay 0), stops, and hand-offs that arm a
   member of the other group at the firing instant. *)
let script_arb ~len delay_gen =
  let open QCheck in
  let chain = Gen.(map (fun n -> n = 0) (int_bound 4)) in
  let plan =
    Gen.(
      list_size (int_bound 5)
        (map2
           (fun again spawn -> { again; spawn })
           (frequency [ (2, map Option.some delay_gen); (1, return (Some 0.)); (1, return None) ])
           (map (fun n -> n = 0) (int_bound 3))))
  in
  let source =
    Gen.(
      map2
        (fun (g, m) (d, p) -> Source (g, m, d, p))
        (pair (int_bound 1) (int_bound 5))
        (pair delay_gen plan))
  in
  let lane_delays =
    Gen.(
      map2
        (fun ds twin -> if twin then ds @ [ List.hd ds ] else ds)
        (list_size (int_range 1 63) (frequency [ (1, oneofl [ 0.; 0.5; 1.; 3e-7 ]); (1, delay_gen) ]))
        bool)
  in
  let gen =
    Gen.(
      pair lane_delays
        (list_size (int_range 1 len)
           (frequency
              [
                (4, map2 (fun d c -> Schedule (d, c)) delay_gen chain);
                (3, map (fun d -> Timer d) delay_gen);
                (1, map2 (fun n d -> Burst (n, d)) (int_range 2 12) delay_gen);
                (1, map (fun d -> Aux d) delay_gen);
                (3, map2 (fun i c -> Lane (i, c)) (frequency [ (2, int_bound 3); (1, int_bound 63) ]) chain);
                (2, map (fun i -> Cancel i) (int_bound 1_000_000));
                (3, return Step);
                (1, map (fun d -> Until d) delay_gen);
                (3, source);
              ])))
  in
  make
    ~print:(fun (lds, cmds) ->
      Printf.sprintf "lane delays [%s]: [%s]"
        (String.concat "; " (List.map (Printf.sprintf "%h") lds))
        (String.concat "; " (List.map print_cmd cmds)))
    ~shrink:Shrink.(pair nil list)
    gen

let matches_oracle (lane_delays, cmds) =
  Drive_real.run ~lane_delays cmds = Drive_oracle.run ~lane_delays cmds

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
   at once 60% of the time, sometimes with a random older one too, while
   source group members fire and re-arm among them. *)
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
               (if Rng.int rng 10 = 0 then
                  [
                    Source
                      ( Rng.int rng 2,
                        Rng.int rng 6,
                        delay,
                        List.init (Rng.int rng 4) (fun _ ->
                            { again = Some (float_of_int (Rng.int rng 3)); spawn = Rng.int rng 5 = 0 }) );
                  ]
                else [])
               @ Timer delay
               :: (if Rng.int rng 10 < 6 then
                     Cancel 0 :: (if Rng.int rng 4 = 0 then [ Cancel (Rng.int rng 1_000_000) ] else [])
                   else [])
               @ if Rng.int rng 8 = 0 then [ Step ] else []))
      in
      let ((fired, _, _, _, _) as real) = Drive_real.run ~lane_delays:[ 0. ] cmds in
      let timers_fired = List.filter (fun (k, _) -> k < 1_000_000) fired in
      List.length timers_fired * 2 <= total && real = Drive_oracle.run ~lane_delays:[ 0. ] cmds)

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
  rejects "lane" (fun () -> ignore (Sim.lane sim ~delay:nan ignore));
  rejects "source_at" (fun () -> Sim.source_at (Sim.group sim ignore) ~member:0 ~time:nan);
  Alcotest.(check int) "nothing pending" 0 (Sim.pending sim);
  Sim.schedule sim ~delay:1. ignore;
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

(* The first outputs of every entry point, pinned to values recorded
   before the state moved from a record of boxed [int64]s to a bytes
   block: any change to the state layout, the draw or a mapping shows
   here, where bit-identical figures would only show it indirectly. *)
let rng_golden () =
  let i64 = Alcotest.int64 and fl = Alcotest.float 0. in
  let r = Rng.create ~seed:42 in
  List.iter
    (fun want -> Alcotest.check i64 "create bits64" want (Rng.bits64 r))
    [ 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L ];
  let s = Rng.split r in
  Alcotest.check i64 "split bits64 0" 0x2a5a28083cf1c6e8L (Rng.bits64 s);
  Alcotest.check i64 "split bits64 1" 0x8634c266f909b663L (Rng.bits64 s);
  Alcotest.check i64 "parent after split" 0xfde6dc7fe2ec5e64L (Rng.bits64 r);
  Alcotest.check fl "float" 0x1.1ba0b6ad99dp-1 (Rng.float s 1.0);
  Alcotest.check fl "float bound" 0x1.32a6d0d28367p+1 (Rng.float s 3.5);
  Alcotest.(check int) "int" 16 (Rng.int s 1000);
  Alcotest.(check int) "int small" 5 (Rng.int s 7);
  List.iter (fun want -> Alcotest.(check bool) "bool" want (Rng.bool s)) [ false; true; true ];
  Alcotest.check fl "exponential" 0x1.b3980cbe66b38p+2 (Rng.exponential s ~mean:2.);
  Alcotest.(check string) "bytes" "\x44\x36\xb1\xce\xc7\xee\x90\x83" (Rng.bytes s 8);
  let l = Rng.lane ~seed:7 3 in
  Alcotest.check i64 "lane bits64" 0x1bc52aeefc73fc07L (Rng.bits64 l);
  Alcotest.check fl "lane float" 0x1.59c1f2f83365cp-2 (Rng.float l 1.0);
  let b = Rng.Bank.create ~seed:7 ~n:4 in
  Alcotest.check i64 "bank bits64" 0x1bc52aeefc73fc07L (Rng.Bank.bits64 b 3);
  Alcotest.check fl "bank float" 0x1.59c1f2f83365cp-2 (Rng.Bank.float b 3 1.0)

(* A draw allocates only what it returns: [float] inlines into its caller,
   so its double stays unboxed and a draw allocates nothing, and [split]
   allocates a 32-byte state block plus the SplitMix64 scratch.  The zero
   pins the build: compiled with -opaque (dune's dev profile),
   [Rng.float] is an out-of-line call that boxes its result. *)
let rng_draw_words () =
  let r = Rng.create ~seed:5 in
  let n = 10_000 in
  let acc = ref 0. in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    acc := !acc +. Rng.float r 1.0
  done;
  let per_float = (Gc.minor_words () -. w0) /. float_of_int n in
  let w1 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Rng.split r))
  done;
  let per_split = (Gc.minor_words () -. w1) /. float_of_int n in
  ignore (Sys.opaque_identity !acc);
  if per_float > 0. then
    Alcotest.failf
      "Rng.float allocates %.1f words/draw (budget 0): it was not inlined across modules. Was \
       this built with -opaque, i.e. dune's dev profile? The root dune-workspace selects release."
      per_float;
  Alcotest.(check bool) (Printf.sprintf "split %.1f words <= 40" per_split) true (per_split <= 40.)

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

(* --- constant-delay lanes ------------------------------------------- *)

(* A lane whose members index a table of thunks, and the function that
   queues a thunk on it: a test can give each lane event its own action,
   as with [Sim.schedule]. *)
let thunk_lane ?kind sim ~delay =
  let thunks = Hashtbl.create 16 and next = ref 0 in
  let lane =
    Sim.lane ?kind sim ~delay (fun k ->
        let f = Hashtbl.find thunks k in
        Hashtbl.remove thunks k;
        f ())
  in
  let queue f =
    Hashtbl.replace thunks !next f;
    Sim.lane_schedule lane !next;
    incr next
  in
  (lane, queue)

(* A lane's contract in one script: it rejects a negative delay, its
   entries take [schedule]'s keys (so a lane entry and a plain event at
   the same due time fire in scheduling order), count in [pending] and
   [events_processed], and an entry scheduled from inside a lane's own
   handler lands behind the entries already queued. *)
let lane_contract () =
  let sim = Sim.create () in
  (match Sim.lane sim ~delay:(-1.) ignore with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative lane delay accepted");
  let lane, queue = thunk_lane ~kind:Sim.Kind.net_deliver sim ~delay:1. in
  Alcotest.(check (float 0.)) "delay" 1. (Sim.lane_delay lane);
  let log = ref [] in
  let note name () = log := (name, Sim.now sim) :: !log in
  queue (fun () ->
      note "l1" ();
      queue (note "l4"));
  Sim.schedule sim ~delay:1. (note "p2");
  queue (note "l3");
  Alcotest.(check int) "lane entries count as pending" 3 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check (list (pair string (float 0.))))
    "key order" [ ("l1", 1.); ("p2", 1.); ("l3", 1.); ("l4", 2.) ] (List.rev !log);
  Alcotest.(check int) "fired" 4 (Sim.events_processed sim);
  Alcotest.(check int) "drained" 0 (Sim.pending sim)

(* Lane heads merged with the heap: a lane head that comes first by
   (time, seq) fires first under [step] and under [run ~until], before a
   heap event at the same time with a later seq and across two lanes with
   one delay; a head past the horizon stops [run ~until] at the horizon
   whether or not the heap still holds a later event.  Then the same
   over 48 lanes: heads tie across lanes of one delay and of different
   delays, lanes drain and refill, and a horizon falls among them. *)
let lane_head_first () =
  let sim = Sim.create () in
  let _, a = thunk_lane sim ~delay:1. in
  let _, b = thunk_lane sim ~delay:1. in
  let _, c = thunk_lane sim ~delay:5. in
  let log = ref [] in
  let note name () = log := name :: !log in
  let fired () = List.rev !log in
  Sim.schedule_at sim ~time:2. (note "h2");
  b (note "b1");
  a (note "a1");
  Sim.schedule_at sim ~time:1. (note "h1");
  b (note "b1'");
  c (note "c5");
  Sim.schedule_at sim ~time:7. (note "h7");
  List.iter (fun _ -> Alcotest.(check bool) "step" true (Sim.step sim)) [ 1; 2; 3; 4 ];
  Alcotest.(check (list string)) "steps by (time, seq)" [ "b1"; "a1"; "h1"; "b1'" ] (fired ());
  Alcotest.(check (float 0.)) "clock after steps" 1. (Sim.now sim);
  Sim.run ~until:4. sim;
  Alcotest.(check (list string)) "head past the horizon waits" [ "b1"; "a1"; "h1"; "b1'"; "h2" ] (fired ());
  Alcotest.(check (float 0.)) "clock at the horizon" 4. (Sim.now sim);
  Alcotest.(check int) "head and heap event pending" 2 (Sim.pending sim);
  Sim.run ~until:6. sim;
  Alcotest.(check (list string)) "head before the heap root" [ "b1"; "a1"; "h1"; "b1'"; "h2"; "c5" ] (fired ());
  Alcotest.(check (float 0.)) "clock at the second horizon" 6. (Sim.now sim);
  c (note "c11");
  Sim.run ~until:10. sim;
  Alcotest.(check (float 0.)) "head past the horizon, heap empty" 10. (Sim.now sim);
  Alcotest.(check int) "the head is still pending" 1 (Sim.pending sim);
  Alcotest.(check bool) "last step" true (Sim.step sim);
  Alcotest.(check bool) "drained" false (Sim.step sim);
  Alcotest.(check (list string))
    "all fired" [ "b1"; "a1"; "h1"; "b1'"; "h2"; "c5"; "h7"; "c11" ] (fired ());
  Alcotest.(check (float 0.)) "clock at the last head" 11. (Sim.now sim);
  Alcotest.(check int) "events" 8 (Sim.events_processed sim);
  let sim = Sim.create () in
  let log = ref [] and want = ref [] and seq = ref 0 in
  let lanes =
    Array.init 48 (fun k ->
        Sim.lane sim ~delay:(float_of_int (1 + (k * 5 mod 6))) (fun m -> log := (Sim.now sim, m) :: !log))
  in
  let add k =
    let l = lanes.(k) in
    want := ((Sim.now sim +. Sim.lane_delay l, !seq), (Sim.now sim +. Sim.lane_delay l, k)) :: !want;
    incr seq;
    Sim.lane_schedule l k
  in
  let batch stride =
    for j = 0 to 47 do
      add (j * stride mod 48)
    done
  in
  let fired () = List.rev !log in
  let order = Alcotest.(list (pair (float 0.) int)) in
  batch 7;
  Sim.run ~until:0.5 sim;
  batch 11;
  Sim.run ~until:2. sim;
  batch 13;
  let all = List.map snd (List.sort compare !want) in
  let upto h = List.filter (fun (time, _) -> time <= h) all in
  Alcotest.(check order) "48 lanes up to 2" (upto 2.) (fired ());
  Sim.run ~until:4.25 sim;
  Alcotest.(check order) "48 lanes up to the horizon" (upto 4.25) (fired ());
  Alcotest.(check (float 0.)) "clock at the 48-lane horizon" 4.25 (Sim.now sim);
  Alcotest.(check int) "heads past the horizon pending"
    (List.length all - List.length (upto 4.25))
    (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check order) "48 lanes by (time, seq)" all (fired ())

(* What the scheduler allocates per event, in a steady chain of 64
   pending events that each reschedule themselves: a lane event and a
   [schedule_at] event allocate only the boxed clock written at each fire
   (2 words), and [schedule_at] also its boxed [time] argument (2 words).
   The lane chain runs on one lane and, round-robin, on eight lanes of
   different delays, where every fire re-keys the lane heap's root and
   sifts it down among the eight.  A far-off heap event
   and a far-off lane entry stay pending throughout, so every fire
   compares the two heaps' roots.  Measured at these values before lanes
   left the event heap and again with the lane heap; any change moves
   where minor collections fall in every run, so the budgets are exact
   (the 0.01 is the runs' one-off loop closures, spread over 100k
   events). *)
let scheduler_minor_words () =
  (* [make sim fire] is what queues one more event that calls [fire]. *)
  let words_per_event make =
    let sim = Sim.create () in
    Sim.schedule_at sim ~time:1e9 ignore;
    Sim.lane_schedule (Sim.lane sim ~delay:1e9 ignore) 0;
    let left = ref 0 and schedule = ref ignore in
    let fire () =
      if !left > 0 then begin
        decr left;
        !schedule ()
      end
    in
    schedule := make sim fire;
    let go n =
      left := n;
      for _ = 1 to 64 do
        !schedule ()
      done;
      Sim.run ~until:(Sim.now sim +. 1e6) sim
    in
    go 10_000;
    let n = 100_000 in
    let w0 = Gc.minor_words () in
    go n;
    let words = (Gc.minor_words () -. w0) /. float_of_int (n + 64) in
    Alcotest.(check int) "bystanders still pending" 2 (Sim.pending sim);
    words
  in
  let lane =
    words_per_event (fun sim fire ->
        let l = Sim.lane sim ~delay:1e-3 (fun _ -> fire ()) in
        fun () -> Sim.lane_schedule l 0)
  in
  let lanes =
    words_per_event (fun sim fire ->
        let ls = Array.init 8 (fun k -> Sim.lane sim ~delay:(float_of_int (k + 1) *. 1e-3) (fun _ -> fire ())) in
        let next = ref 0 in
        fun () ->
          next := (!next + 1) land 7;
          Sim.lane_schedule ls.(!next) !next)
  in
  let at =
    words_per_event (fun sim fire () -> Sim.schedule_at sim ~time:(Sim.now sim +. 1e-3) fire)
  in
  (* 64 members of one source group, each re-arming itself from its
     action: no closure and no push, so a tick costs what a lane event
     does. *)
  let source =
    let sim = Sim.create () in
    Sim.schedule_at sim ~time:1e9 ignore;
    Sim.lane_schedule (Sim.lane sim ~delay:1e9 ignore) 0;
    let left = ref 0 in
    let g =
      Sim.group sim (fun _ ->
          if !left > 0 then begin
            decr left;
            Sim.rearm sim ~delay:1e-3
          end)
    in
    let go n =
      left := n;
      for m = 0 to 63 do
        Sim.source_at g ~member:m ~time:(Sim.now sim)
      done;
      Sim.run ~until:(Sim.now sim +. 1e6) sim
    in
    go 10_000;
    let n = 100_000 in
    let w0 = Gc.minor_words () in
    go n;
    let words = (Gc.minor_words () -. w0) /. float_of_int (n + 64) in
    Alcotest.(check int) "source bystanders still pending" 2 (Sim.pending sim);
    words
  in
  Alcotest.(check bool) (Printf.sprintf "lane %.3f words/event <= 2" lane) true (lane <= 2.01);
  Alcotest.(check bool)
    (Printf.sprintf "source tick %.3f words/event <= 2" source)
    true (source <= 2.01);
  Alcotest.(check bool) (Printf.sprintf "8 lanes %.3f words/event <= 2" lanes) true (lanes <= 2.01);
  Alcotest.(check bool) (Printf.sprintf "schedule_at %.3f words/event <= 4" at) true (at <= 4.01)

(* A source member's contract beyond the oracle's: [rearm] works only
   once, inside the firing member's action; an action that raises leaves
   its member retired, with the other members and [pending] intact. *)
let source_group_contract () =
  let sim = Sim.create () in
  let invalid f = match f () with () -> false | exception Invalid_argument _ -> true in
  let fired = ref [] in
  let twice = ref false and nan_rearm = ref false in
  let g =
    Sim.group sim (fun m ->
        fired := (m, Sim.now sim) :: !fired;
        match m with
        | 0 ->
            Sim.rearm sim ~delay:1.;
            twice := invalid (fun () -> Sim.rearm sim ~delay:1.)
        | 1 -> nan_rearm := invalid (fun () -> Sim.rearm sim ~delay:nan)
        | _ -> failwith "boom")
  in
  Alcotest.(check bool) "rearm outside an action" true (invalid (fun () -> Sim.rearm sim ~delay:1.));
  Alcotest.(check bool) "negative member" true
    (invalid (fun () -> Sim.source_at g ~member:(-1) ~time:0.));
  Sim.source_at g ~member:2 ~time:0.5;
  Sim.source_at g ~member:0 ~time:1.;
  Sim.source_at g ~member:1 ~time:1.;
  Alcotest.(check int) "armed" 3 (Sim.pending sim);
  (match Sim.run ~until:1.5 sim with
  | () -> Alcotest.fail "the raising action's exception was lost"
  | exception Failure _ -> ());
  Alcotest.(check int) "raiser retired" 2 (Sim.pending sim);
  Sim.run ~until:2.5 sim;
  Alcotest.(check bool) "second rearm rejected" true !twice;
  Alcotest.(check bool) "NaN rearm rejected" true !nan_rearm;
  Alcotest.(check (list (pair int (float 0.))))
    "fired" [ (2, 0.5); (0, 1.); (1, 1.); (0, 2.) ] (List.rev !fired);
  Alcotest.(check int) "member 0 re-armed, member 1 done" 1 (Sim.pending sim)

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
    Alcotest.test_case "lane contract" `Quick lane_contract;
    Alcotest.test_case "lane head first" `Quick lane_head_first;
    Alcotest.test_case "scheduler minor words" `Quick scheduler_minor_words;
    Alcotest.test_case "source group contract" `Quick source_group_contract;
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
    Alcotest.test_case "rng golden" `Quick rng_golden;
    Alcotest.test_case "rng draw words" `Quick rng_draw_words;
  ]
