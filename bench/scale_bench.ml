(* Million-sender scale benchmark (DESIGN.md section 13).

   A fig8-style sweep over botnet size on the fan-in topology: legitimate
   users run real transfers while the attack is folded into [Swarm]
   aggregates in Independent mode — one simulator timer per member, the
   regime the timing wheel exists for.  The aggregate attack rate is held
   constant across the sweep so event volume tracks traffic while pending
   state tracks senders.

   Per sender count the sweep runs a heap leg and a wheel leg and requires
   them to agree exactly (events, packets, completion, end time) — the
   scheduler differential at whole-simulation granularity.  At the largest
   count a coalesced leg rides along to show the aggregate model's pending
   set collapse, plus a profiled run for Obs.Profile attribution.

   Gates (exit 1):
     - every leg completes its run;
     - heap and wheel legs are result-identical at every sweep point, and
       the coalesced leg matches them at the largest count;
     - wheel events/s >= heap events/s at the largest count (best of
       [--reps]);
     - wheel peak live-heap <= [--mem-ratio] x heap peak live-heap at the
       largest count (the tick-node freelist gate);
     - wall clock and peak live-heap at the largest count stay inside
       [--wall-budget-s] / [--mem-budget-mb].

   Run with:            dune exec bench/scale_bench.exe
   Smoke mode (CI):     dune exec bench/scale_bench.exe -- --smoke *)

let senders_list = ref [ 1_000; 10_000; 100_000 ]
let reps = ref 3
let transfers = ref 50
let max_sim = ref 30.
let wall_budget_s = ref 30.
let mem_budget_mb = ref 512.
let mem_ratio = ref 1.15
let out_path = ref "BENCH_scale.json"
let smoke = ref false

let spec =
  [
    ( "--senders",
      Arg.String
        (fun s -> senders_list := List.map int_of_string (String.split_on_char ',' s)),
      "N,N,..  sweep points (default 1000,10000,100000)" );
    ("--reps", Arg.Set_int reps, "K  timing repetitions at the largest count (default 3)");
    ("--transfers", Arg.Set_int transfers, "K  transfers per user (default 50)");
    ("--max-sim", Arg.Set_float max_sim, "S  simulated-seconds cap per leg (default 30)");
    ( "--wall-budget-s",
      Arg.Set_float wall_budget_s,
      "S  max wall seconds for the wheel leg at the largest count (default 30)" );
    ( "--mem-budget-mb",
      Arg.Set_float mem_budget_mb,
      "M  max peak live-heap MB at the largest count (default 512)" );
    ( "--mem-ratio",
      Arg.Set_float mem_ratio,
      "R  max wheel/heap peak live-heap ratio at the largest count (default 1.15)" );
    ("--out", Arg.Set_string out_path, "FILE  JSON output (default BENCH_scale.json)");
    ("--smoke", Arg.Set smoke, "  reduced sweep (500,5000) with relaxed budgets, for CI");
  ]

let () = Arg.parse spec (fun _ -> ()) "scale_bench [options]"

let () =
  if !smoke then begin
    senders_list := [ 500; 5_000 ];
    reps := 2;
    transfers := 10
  end

type leg = {
  l_senders : int;
  l_sched : string; (* "heap" | "wheel" | "coalesced" *)
  l_wall_s : float; (* best over reps *)
  l_events : int;
  l_attack_packets : int;
  l_fraction : float;
  l_sim_end : float;
  l_peak_heap_mb : float;
  l_peak_pending : float;
}

let failed = ref false

let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "FATAL: %s\n" s; failed := true) fmt

let gauge_max report name =
  match report with
  | None -> 0.
  | Some r -> (
      match List.find_opt (fun g -> g.Obs.Report.g_name = name) r.Obs.Report.gauges with
      | Some g -> g.Obs.Report.g_max
      | None -> 0.)

let config ~senders ~mode ~sched =
  {
    Workload.Scale.default with
    Workload.Scale.sc_senders = senders;
    sc_aggregates = 16;
    sc_swarm_mode = mode;
    sc_transfers_per_user = !transfers;
    sc_max_time = !max_sim;
    sc_sched = sched;
  }

let obs =
  {
    Workload.Experiment.obs_default with
    Workload.Experiment.obs_gauge_period = 0.1 (* memory gauges only; no probe *);
  }

(* Best wall over [reps] runs; results must be identical across reps (same
   seed, same code path), so everything but the clock comes from the last. *)
let run_leg ~senders ~mode ~sched ~label ~reps () =
  let best = ref infinity and result = ref None in
  let cfg = config ~senders ~mode ~sched in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = Workload.Scale.run ~obs cfg in
    let wall = Unix.gettimeofday () -. t0 in
    if wall < !best then best := wall;
    result := Some r
  done;
  let r = match !result with Some r -> r | None -> assert false in
  if r.Workload.Scale.sr_attack_packets = 0 then
    fail "%s @ %d senders: no attack packets emitted" label senders;
  if r.Workload.Scale.sr_sim_end <= 0. then fail "%s @ %d senders: empty run" label senders;
  {
    l_senders = senders;
    l_sched = label;
    l_wall_s = !best;
    l_events = r.Workload.Scale.sr_events;
    l_attack_packets = r.sr_attack_packets;
    l_fraction = r.sr_fraction_completed;
    l_sim_end = r.sr_sim_end;
    l_peak_heap_mb = gauge_max r.sr_obs "live-heap-words" *. 8. /. 1e6;
    l_peak_pending = gauge_max r.sr_obs "sim-pending-events";
  }

let events_per_s l = float_of_int l.l_events /. l.l_wall_s

let check_identical a b =
  if
    a.l_events <> b.l_events
    || a.l_attack_packets <> b.l_attack_packets
    || a.l_fraction <> b.l_fraction
    || a.l_sim_end <> b.l_sim_end
  then
    fail "%s and %s legs diverge at %d senders (events %d vs %d, packets %d vs %d)" a.l_sched
      b.l_sched a.l_senders a.l_events b.l_events a.l_attack_packets b.l_attack_packets

let () =
  let counts = List.sort compare !senders_list in
  let largest = List.fold_left max 0 counts in
  let legs =
    List.concat_map
      (fun senders ->
        let reps = if senders = largest then !reps else 1 in
        let heap =
          run_leg ~senders ~mode:Workload.Swarm.Independent ~sched:(Some Sim.Heap) ~label:"heap"
            ~reps ()
        in
        let wheel =
          run_leg ~senders ~mode:Workload.Swarm.Independent ~sched:(Some Sim.Wheel)
            ~label:"wheel" ~reps ()
        in
        check_identical heap wheel;
        Printf.printf
          "%8d senders: heap %7.0f ev/s (%.2fs)  wheel %7.0f ev/s (%.2fs)  peak-heap %.0f MB  \
           pending %.0f\n\
           %!"
          senders (events_per_s heap) heap.l_wall_s (events_per_s wheel) wheel.l_wall_s
          wheel.l_peak_heap_mb wheel.l_peak_pending;
        if senders = largest then begin
          (* The aggregate model at the same point: identical sim results
             with a pending set that no longer scales with the botnet. *)
          let coalesced =
            run_leg ~senders ~mode:Workload.Swarm.Coalesced ~sched:None ~label:"coalesced"
              ~reps:1 ()
          in
          check_identical wheel coalesced;
          Printf.printf
          "%8d senders: coalesced %7.0f ev/s (%.2fs)  peak-heap %.0f MB  pending %.0f\n%!"
            senders (events_per_s coalesced) coalesced.l_wall_s coalesced.l_peak_heap_mb
            coalesced.l_peak_pending;
          [ heap; wheel; coalesced ]
        end
        else [ heap; wheel ])
      counts
  in
  (* Gates at the largest sweep point. *)
  let at_largest label =
    List.find (fun l -> l.l_senders = largest && l.l_sched = label) legs
  in
  let heap_l = at_largest "heap" and wheel_l = at_largest "wheel" in
  let wheel_beats_heap = events_per_s wheel_l >= events_per_s heap_l in
  if not wheel_beats_heap then
    fail "wheel %.0f ev/s < heap %.0f ev/s at %d senders" (events_per_s wheel_l)
      (events_per_s heap_l) largest;
  let wall_ok = wheel_l.l_wall_s <= !wall_budget_s in
  if not wall_ok then
    fail "wheel leg took %.1fs wall at %d senders (budget %g)" wheel_l.l_wall_s largest
      !wall_budget_s;
  let mem_ok = wheel_l.l_peak_heap_mb <= !mem_budget_mb in
  if not mem_ok then
    fail "peak live-heap %.0f MB at %d senders (budget %g)" wheel_l.l_peak_heap_mb largest
      !mem_budget_mb;
  (* Tick-node freelist gate: the wheel's peak live heap must stay within
     [--mem-ratio] of the binary heap's at the same sweep point. *)
  let wheel_heap_ratio =
    if heap_l.l_peak_heap_mb > 0. then wheel_l.l_peak_heap_mb /. heap_l.l_peak_heap_mb else 1.
  in
  let mem_ratio_ok = wheel_heap_ratio <= !mem_ratio in
  if not mem_ratio_ok then
    fail "wheel peak heap %.1f MB is %.2fx heap's %.1f MB at %d senders (max ratio %g)"
      wheel_l.l_peak_heap_mb wheel_heap_ratio heap_l.l_peak_heap_mb largest !mem_ratio;
  (* Obs.Profile attribution of the wheel leg at the largest count: where
     the event-loop wall time actually goes. *)
  let attribution =
    let obs =
      { Workload.Experiment.obs_default with Workload.Experiment.obs_profile = true }
    in
    let r =
      Workload.Scale.run ~obs
        (config ~senders:largest ~mode:Workload.Swarm.Independent ~sched:(Some Sim.Wheel))
    in
    match r.Workload.Scale.sr_obs with
    | None -> []
    | Some rep ->
        List.map
          (fun p -> (p.Obs.Report.p_kind, p.Obs.Report.p_events, p.Obs.Report.p_wall_s))
          rep.Obs.Report.profile
  in
  let leg_json l =
    Obs.Export.Obj
      [
        ("senders", Obs.Export.Int l.l_senders);
        ("sched", Obs.Export.String l.l_sched);
        ("wall_s", Obs.Export.Float l.l_wall_s);
        ("events", Obs.Export.Int l.l_events);
        ("events_per_s", Obs.Export.Float (events_per_s l));
        ("attack_packets", Obs.Export.Int l.l_attack_packets);
        ("fraction_completed", Obs.Export.Float l.l_fraction);
        ("sim_end_s", Obs.Export.Float l.l_sim_end);
        ("peak_heap_mb", Obs.Export.Float l.l_peak_heap_mb);
        ("peak_pending_events", Obs.Export.Float l.l_peak_pending);
      ]
  in
  let json =
    Obs.Export.Obj
      [
        ("benchmark", Obs.Export.String "aggregate-attacker scale sweep (fan-in, independent mode)");
        ("smoke", Obs.Export.Bool !smoke);
        ("senders", Obs.Export.List (List.map (fun n -> Obs.Export.Int n) counts));
        ("largest_senders", Obs.Export.Int largest);
        ("host_cores", Obs.Export.Int (Domain.recommended_domain_count ()));
        ("legs", Obs.Export.List (List.map leg_json legs));
        ( "gates",
          Obs.Export.Obj
            [
              ("wheel_beats_heap", Obs.Export.Bool wheel_beats_heap);
              ("wheel_events_per_s", Obs.Export.Float (events_per_s wheel_l));
              ("heap_events_per_s", Obs.Export.Float (events_per_s heap_l));
              ("wall_budget_s", Obs.Export.Float !wall_budget_s);
              ("wall_s", Obs.Export.Float wheel_l.l_wall_s);
              ("wall_budget_ok", Obs.Export.Bool wall_ok);
              ("mem_budget_mb", Obs.Export.Float !mem_budget_mb);
              ("peak_heap_mb", Obs.Export.Float wheel_l.l_peak_heap_mb);
              ("mem_budget_ok", Obs.Export.Bool mem_ok);
              ("wheel_heap_ratio", Obs.Export.Float wheel_heap_ratio);
              ("mem_ratio_max", Obs.Export.Float !mem_ratio);
              ("mem_ratio_ok", Obs.Export.Bool mem_ratio_ok);
            ] );
        ( "profile",
          Obs.Export.List
            (List.map
               (fun (kind, events, wall) ->
                 Obs.Export.Obj
                   [
                     ("kind", Obs.Export.String kind);
                     ("events", Obs.Export.Int events);
                     ("wall_s", Obs.Export.Float wall);
                   ])
               attribution) );
      ]
  in
  let oc = open_out !out_path in
  output_string oc (Obs.Export.to_string_pretty json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" !out_path;
  if !failed then exit 1
