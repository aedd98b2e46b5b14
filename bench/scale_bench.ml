(* Million-sender scale benchmark (DESIGN.md section 13).

   A fig8-style sweep over botnet size on the fan-in topology: legitimate
   users run real transfers while the attack is folded into [Swarm]
   aggregates in Independent mode — one simulator timer per member, so the
   pending set grows with the botnet.  The aggregate attack rate is held
   constant across the sweep so event volume tracks traffic while pending
   state tracks senders.

   At the largest count a coalesced leg (one event per aggregate) runs the
   same simulation with a pending set that no longer scales with the
   botnet.  It must match the independent leg exactly, and its events/s is
   the machine-speed reference compare_bench normalizes the independent
   leg by.  A profiled run attributes the independent leg's loop time.

   Gates (exit 1):
     - every leg completes its run;
     - the coalesced leg is result-identical to the independent leg at the
       largest count;
     - the independent leg's wall clock and peak live-heap at the largest
       count stay inside [--wall-budget-s] / [--mem-budget-mb].

   Run with:            dune exec bench/scale_bench.exe
   Smoke mode (CI):     dune exec bench/scale_bench.exe -- --smoke *)

let senders_list = ref [ 1_000; 10_000; 100_000 ]
let reps = ref 3
let transfers = ref 50
let max_sim = ref 30.
let wall_budget_s = ref 30.
let mem_budget_mb = ref 512.
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
      "S  max wall seconds for the independent leg at the largest count (default 30)" );
    ( "--mem-budget-mb",
      Arg.Set_float mem_budget_mb,
      "M  max peak live-heap MB at the largest count (default 512)" );
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
  l_mode : string; (* "independent" | "coalesced" *)
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

(* Peak of a footprint telemetry channel over the leg.  A missing report
   or channel, or one with no windows, fails the run and reads as NaN
   (JSON null), never as a 0 MB peak that passes the memory gates. *)
let series_max ~label ~senders report name =
  let row =
    Option.bind report (fun r ->
        List.find_opt (fun s -> s.Obs.Report.s_name = name) r.Obs.Report.series)
  in
  match row with
  | Some s when s.Obs.Report.s_windows > 0 -> s.Obs.Report.s_max
  | Some _ | None ->
      fail "%s @ %d senders: no %s telemetry recorded" label senders name;
      nan

let config ~senders ~mode =
  {
    Workload.Scale.default with
    Workload.Scale.sc_senders = senders;
    sc_aggregates = 16;
    sc_swarm_mode = mode;
    sc_transfers_per_user = !transfers;
    sc_max_time = !max_sim;
  }

let obs =
  {
    Workload.Experiment.obs_default with
    Workload.Experiment.obs_telemetry_interval = 0.1 (* footprint channels; no probe *);
  }

(* Best wall over [reps] runs; results must be identical across reps (same
   seed, same code path), so everything but the clock comes from the last. *)
let run_leg ~senders ~mode ~reps () =
  let label = Workload.Swarm.mode_to_string mode in
  let best = ref infinity and result = ref None in
  let cfg = config ~senders ~mode in
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
    l_mode = label;
    l_wall_s = !best;
    l_events = r.Workload.Scale.sr_events;
    l_attack_packets = r.sr_attack_packets;
    l_fraction = r.sr_fraction_completed;
    l_sim_end = r.sr_sim_end;
    l_peak_heap_mb = series_max ~label ~senders r.sr_obs "heap_words" *. 8. /. 1e6;
    l_peak_pending = series_max ~label ~senders r.sr_obs "pending";
  }

let events_per_s l = float_of_int l.l_events /. l.l_wall_s

let check_identical a b =
  if
    a.l_events <> b.l_events
    || a.l_attack_packets <> b.l_attack_packets
    || a.l_fraction <> b.l_fraction
    || a.l_sim_end <> b.l_sim_end
  then
    fail "%s and %s legs diverge at %d senders (events %d vs %d, packets %d vs %d)" a.l_mode
      b.l_mode a.l_senders a.l_events b.l_events a.l_attack_packets b.l_attack_packets

let () =
  let counts = List.sort compare !senders_list in
  let largest = List.fold_left max 0 counts in
  let legs =
    List.map
      (fun senders ->
        let reps = if senders = largest then !reps else 1 in
        let l = run_leg ~senders ~mode:Workload.Swarm.Independent ~reps () in
        Printf.printf "%8d senders: independent %7.0f ev/s (%.2fs)  peak-heap %.0f MB  pending %.0f\n%!"
          senders (events_per_s l) l.l_wall_s l.l_peak_heap_mb l.l_peak_pending;
        l)
      counts
  in
  let independent = List.find (fun l -> l.l_senders = largest) legs in
  (* The aggregate model at the same point: identical sim results with a
     pending set that no longer scales with the botnet. *)
  let coalesced = run_leg ~senders:largest ~mode:Workload.Swarm.Coalesced ~reps:!reps () in
  check_identical independent coalesced;
  Printf.printf "%8d senders: coalesced   %7.0f ev/s (%.2fs)  peak-heap %.0f MB  pending %.0f\n%!"
    largest (events_per_s coalesced) coalesced.l_wall_s coalesced.l_peak_heap_mb
    coalesced.l_peak_pending;
  let legs = legs @ [ coalesced ] in
  let wall_ok = independent.l_wall_s <= !wall_budget_s in
  if not wall_ok then
    fail "independent leg took %.1fs wall at %d senders (budget %g)" independent.l_wall_s largest
      !wall_budget_s;
  let mem_ok = independent.l_peak_heap_mb <= !mem_budget_mb in
  if not mem_ok then
    fail "peak live-heap %.0f MB at %d senders (budget %g)" independent.l_peak_heap_mb largest
      !mem_budget_mb;
  (* Obs.Profile attribution of the independent leg at the largest count:
     where the event-loop wall time actually goes. *)
  let attribution =
    let obs =
      { Workload.Experiment.obs_default with Workload.Experiment.obs_profile = true }
    in
    let r =
      Workload.Scale.run ~obs (config ~senders:largest ~mode:Workload.Swarm.Independent)
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
        ("mode", Obs.Export.String l.l_mode);
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
        ("provenance", Obs.Export.provenance ~reps:!reps ~seed:Workload.Scale.default.sc_seed);
        ("smoke", Obs.Export.Bool !smoke);
        ("senders", Obs.Export.List (List.map (fun n -> Obs.Export.Int n) counts));
        ("largest_senders", Obs.Export.Int largest);
        ("legs", Obs.Export.List (List.map leg_json legs));
        ( "gates",
          Obs.Export.Obj
            [
              ("independent_events_per_s", Obs.Export.Float (events_per_s independent));
              ("coalesced_events_per_s", Obs.Export.Float (events_per_s coalesced));
              ("wall_budget_s", Obs.Export.Float !wall_budget_s);
              ("wall_s", Obs.Export.Float independent.l_wall_s);
              ("wall_budget_ok", Obs.Export.Bool wall_ok);
              ("mem_budget_mb", Obs.Export.Float !mem_budget_mb);
              ("peak_heap_mb", Obs.Export.Float independent.l_peak_heap_mb);
              ("mem_budget_ok", Obs.Export.Bool mem_ok);
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
