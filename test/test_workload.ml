(* Integration: small versions of the paper's experiments asserting the
   qualitative claims — the shapes the figures show — rather than exact
   numbers. *)

let quick_cfg ?(transfers = 10) ?(max_time = 60.) scheme n attack =
  {
    Workload.Experiment.default with
    Workload.Experiment.scheme;
    n_attackers = n;
    attack;
    transfers_per_user = transfers;
    max_time;
  }

let tva = Workload.Scheme.tva ~params:Workload.Scenario.sim_params ()
let internet = Workload.Scheme.internet ()
let siff = Workload.Scheme.siff ()

let baseline_all_schemes_healthy () =
  (* No attack: every scheme completes everything at ~0.32 s. *)
  List.iter
    (fun (name, factory) ->
      let r = Workload.Experiment.run (quick_cfg factory 0 Workload.Experiment.No_attack) in
      Alcotest.(check (float 1e-9))
        (name ^ " fraction") 1.0 r.Workload.Experiment.fraction_completed;
      Alcotest.(check bool)
        (Printf.sprintf "%s time %.3f" name r.Workload.Experiment.avg_transfer_time)
        true
        (r.Workload.Experiment.avg_transfer_time < 0.4))
    Workload.Scenario.schemes

let tva_unaffected_by_legacy_flood () =
  let r =
    Workload.Experiment.run
      (quick_cfg tva 100 (Workload.Experiment.Legacy_flood { rate_bps = 1e6 }))
  in
  Alcotest.(check (float 1e-9)) "all complete" 1.0 r.Workload.Experiment.fraction_completed;
  Alcotest.(check bool)
    (Printf.sprintf "time flat (%.3f)" r.Workload.Experiment.avg_transfer_time)
    true
    (r.Workload.Experiment.avg_transfer_time < 0.4)

(* A client policy counts a renewal as contact (DESIGN §5): a pair that
   keeps renewing one grant must stay authorized past the policy's 60 s
   window, the 128 s secret rotation and the 256 s timestamp rollover, so
   unattacked TVA keeps the Internet's pace for the whole run. *)
let tva_client_policy_liveness () =
  let run scheme =
    Workload.Experiment.run
      {
        (quick_cfg ~transfers:1000 ~max_time:270. scheme 0 Workload.Experiment.No_attack) with
        Workload.Experiment.n_users = 5;
      }
  in
  let t = run tva and i = run internet in
  let tt = t.Workload.Experiment.avg_transfer_time
  and it = i.Workload.Experiment.avg_transfer_time in
  Alcotest.(check bool) "ran past the rollover" true (t.Workload.Experiment.sim_end > 256.);
  Alcotest.(check bool)
    (Printf.sprintf "tva mean %.4f s within 10%% of internet %.4f s" tt it)
    true
    (tt <= 1.1 *. it)

let internet_collapses_under_legacy_flood () =
  let r =
    Workload.Experiment.run
      (quick_cfg internet 100 (Workload.Experiment.Legacy_flood { rate_bps = 1e6 }))
  in
  Alcotest.(check bool)
    (Printf.sprintf "collapse (%.2f)" r.Workload.Experiment.fraction_completed)
    true
    (r.Workload.Experiment.fraction_completed < 0.3)

let siff_partially_degrades_under_legacy_flood () =
  (* The paper's 1-p^9 model: at 10x overload SIFF completes ~60%, far
     better than the Internet but far worse than TVA. *)
  let r =
    Workload.Experiment.run
      (quick_cfg ~transfers:20 ~max_time:90. siff 100
         (Workload.Experiment.Legacy_flood { rate_bps = 1e6 }))
  in
  Alcotest.(check bool)
    (Printf.sprintf "in between (%.2f)" r.Workload.Experiment.fraction_completed)
    true
    (r.Workload.Experiment.fraction_completed > 0.3
    && r.Workload.Experiment.fraction_completed < 0.95)

let tva_unaffected_by_request_flood () =
  let r =
    Workload.Experiment.run
      (quick_cfg tva 100 (Workload.Experiment.Request_flood { rate_bps = 1e6 }))
  in
  Alcotest.(check (float 1e-9)) "all complete" 1.0 r.Workload.Experiment.fraction_completed;
  Alcotest.(check bool)
    (Printf.sprintf "time flat (%.3f)" r.Workload.Experiment.avg_transfer_time)
    true
    (r.Workload.Experiment.avg_transfer_time < 0.6)

let tva_survives_authorized_flood () =
  (* Fig. 10: per-destination fairness halves the victim's bandwidth but
     nothing worse. *)
  let r =
    Workload.Experiment.run
      (quick_cfg tva 40 (Workload.Experiment.Authorized_flood { rate_bps = 1e6 }))
  in
  Alcotest.(check (float 1e-9)) "all complete" 1.0 r.Workload.Experiment.fraction_completed;
  Alcotest.(check bool)
    (Printf.sprintf "mild slowdown (%.3f)" r.Workload.Experiment.avg_transfer_time)
    true
    (r.Workload.Experiment.avg_transfer_time < 0.8)

let siff_starved_by_authorized_flood () =
  let r =
    Workload.Experiment.run
      (quick_cfg siff 40 (Workload.Experiment.Authorized_flood { rate_bps = 1e6 }))
  in
  Alcotest.(check bool)
    (Printf.sprintf "starved (%.2f)" r.Workload.Experiment.fraction_completed)
    true
    (r.Workload.Experiment.fraction_completed < 0.3)

let imprecise_policy_damage_is_bounded () =
  (* Fig. 11 with TVA: 100 attackers granted 32 KB once at t=10; service
     must be fully recovered well before t=40 and stay clean after. *)
  let cfg =
    {
      (quick_cfg ~transfers:max_int ~max_time:50. tva 100
         (Workload.Experiment.Imprecise_flood
            { rate_bps = 1e6; groups = 1; group_interval = 3.; start_at = 10. }))
      with
      Workload.Experiment.seed = 3;
    }
  in
  let r = Workload.Experiment.run cfg in
  let late = Stats.Timeseries.values_in (Workload.Metrics.timeline r.Workload.Experiment.metrics) ~lo:40. ~hi:50. in
  Alcotest.(check bool) "transfers flowing after recovery" true (List.length late > 20);
  let worst_late = List.fold_left Float.max 0. late in
  Alcotest.(check bool)
    (Printf.sprintf "recovered (worst %.2f)" worst_late)
    true (worst_late < 1.0)

let metrics_accounting () =
  let m = Workload.Metrics.create () in
  Workload.Metrics.record_start m;
  Workload.Metrics.record_start m;
  Workload.Metrics.record_start m;
  Workload.Metrics.record_outcome m ~now:1. (Tcp.Conn.Completed { duration = 0.5 });
  Workload.Metrics.record_outcome m ~now:2. (Tcp.Conn.Aborted { reason = "x"; at = 2. });
  Alcotest.(check int) "attempted" 3 (Workload.Metrics.attempted m);
  Alcotest.(check int) "completed" 1 (Workload.Metrics.completed m);
  Alcotest.(check int) "aborted" 1 (Workload.Metrics.aborted m);
  Alcotest.(check (float 1e-9)) "fraction" (1. /. 3.) (Workload.Metrics.fraction_completed m);
  Alcotest.(check (float 1e-9)) "avg" 0.5 (Workload.Metrics.avg_transfer_time m)

let metrics_merge () =
  let a = Workload.Metrics.create () and b = Workload.Metrics.create () in
  Workload.Metrics.record_start a;
  Workload.Metrics.record_outcome a ~now:1. (Tcp.Conn.Completed { duration = 1.0 });
  Workload.Metrics.record_start b;
  Workload.Metrics.record_outcome b ~now:2. (Tcp.Conn.Completed { duration = 3.0 });
  Workload.Metrics.merge_into a b;
  Alcotest.(check int) "attempted" 2 (Workload.Metrics.attempted a);
  Alcotest.(check (float 1e-9)) "avg" 2.0 (Workload.Metrics.avg_transfer_time a);
  Alcotest.(check int) "timeline merged" 2 (Stats.Timeseries.length (Workload.Metrics.timeline a))

let experiment_deterministic () =
  let cfg = quick_cfg ~transfers:5 tva 10 (Workload.Experiment.Legacy_flood { rate_bps = 1e6 }) in
  let r1 = Workload.Experiment.run cfg in
  let r2 = Workload.Experiment.run cfg in
  Alcotest.(check (float 1e-12)) "same avg time" r1.Workload.Experiment.avg_transfer_time
    r2.Workload.Experiment.avg_transfer_time;
  Alcotest.(check (float 1e-12)) "same fraction" r1.Workload.Experiment.fraction_completed
    r2.Workload.Experiment.fraction_completed

let parallel_sweep_matches_sequential () =
  (* The Pool.map determinism contract on real (small) grids: the parallel
     sweep must render byte-for-byte the same table as the sequential one.
     The second grid is a request flood over all five schemes, so every
     attack packet runs capability or marking crypto at each router. *)
  let check ~jobs ~schemes ~attacker_counts ~transfers ~max_time attack =
    let base =
      {
        Workload.Experiment.default with
        Workload.Experiment.transfers_per_user = transfers;
        max_time;
      }
    in
    let sweep jobs =
      Stats.Table.render
        (Workload.Scenario.render
           (Workload.Scenario.flood_sweep ~jobs ~schemes ~attacker_counts ~base ~attack ()))
    in
    Alcotest.(check string) (Printf.sprintf "jobs=%d table = jobs=1 table" jobs) (sweep 1) (sweep jobs)
  in
  check ~jobs:4 ~schemes:Workload.Scenario.paper_schemes ~attacker_counts:[ 1; 10 ] ~transfers:3
    ~max_time:30. (fun ~rate_bps -> Workload.Experiment.Legacy_flood { rate_bps });
  check ~jobs:2 ~schemes:Workload.Scenario.schemes ~attacker_counts:[ 1; 40 ] ~transfers:10
    ~max_time:3. (fun ~rate_bps -> Workload.Experiment.Request_flood { rate_bps })

let scenario_render_shapes () =
  let series =
    [
      {
        Workload.Scenario.scheme = "x";
        points =
          [
            {
              Workload.Scenario.n_attackers = 1;
              fraction_completed = 1.;
              avg_transfer_time = 0.3;
              median_transfer_time = 0.3;
              jain = 1.;
              report = None;
            };
          ];
      };
    ]
  in
  let t = Workload.Scenario.render series in
  Alcotest.(check int) "one row" 1 (List.length (Stats.Table.rows t))

(* --- cross-scheme fairness report (DESIGN.md section 16) ---------------- *)

let jain_index_algebra () =
  let jain = Workload.Metrics.jain_index in
  Alcotest.(check (float 1e-12)) "empty is fair" 1.0 (jain []);
  Alcotest.(check (float 1e-12)) "singleton" 1.0 (jain [ 42. ]);
  Alcotest.(check (float 1e-12)) "equal shares" 1.0 (jain [ 3.; 3.; 3.; 3. ]);
  Alcotest.(check (float 1e-12)) "all idle is fair" 1.0 (jain [ 0.; 0.; 0. ]);
  (* One user hogging everything among n: (x)^2 / (n * x^2) = 1/n. *)
  Alcotest.(check (float 1e-12)) "one hog of 4" 0.25 (jain [ 10.; 0.; 0.; 0. ]);
  Alcotest.(check (float 1e-12)) "scale invariant" (jain [ 1.; 2.; 3. ]) (jain [ 10.; 20.; 30. ])

(* "No shares" is not "fair shares": the report's jain cells read [None]
   where nothing completed. *)
let jain_index_opt_no_data () =
  let jain = Workload.Metrics.jain_index_opt in
  let opt = Alcotest.(option (float 1e-12)) in
  Alcotest.check opt "empty has no index" None (jain []);
  Alcotest.check opt "all idle has no index" None (jain [ 0.; 0. ]);
  Alcotest.check opt "equal shares" (Some 1.) (jain [ 1.; 1. ])

let median_transfer_time_shapes () =
  let m = Workload.Metrics.create () in
  Alcotest.(check bool) "no transfers is nan" true
    (Float.is_nan (Workload.Metrics.median_transfer_time m));
  List.iteri
    (fun i d ->
      Workload.Metrics.record_outcome m ~now:(float_of_int i)
        (Tcp.Conn.Completed { duration = d }))
    [ 0.5; 0.1; 0.9 ];
  Alcotest.(check (float 1e-12)) "odd count picks the middle" 0.5
    (Workload.Metrics.median_transfer_time m);
  Workload.Metrics.record_outcome m ~now:4. (Tcp.Conn.Completed { duration = 0.3 });
  Alcotest.(check (float 1e-12)) "even count averages the middle two" 0.4
    (Workload.Metrics.median_transfer_time m)

let report_deterministic_across_jobs () =
  (* The report is the artifact CI pins; it must not depend on -j. *)
  let base =
    {
      Workload.Experiment.default with
      Workload.Experiment.transfers_per_user = 3;
      max_time = 20.;
    }
  in
  let render jobs =
    let r =
      Workload.Scenario.flood_sweep ~jobs ~schemes:Workload.Scenario.schemes
        ~attacker_counts:[ 1; 10 ] ~base
        ~attack:(fun ~rate_bps -> Workload.Experiment.Legacy_flood { rate_bps })
        ()
    in
    (Workload.Report.to_markdown r, Workload.Report.to_json r)
  in
  let md1, json1 = render 1 and md4, json4 = render 4 in
  Alcotest.(check string) "markdown jobs=4 = jobs=1" md1 md4;
  Alcotest.(check string) "json jobs=4 = jobs=1" json1 json4;
  let json =
    match Obs.Export.parse json1 with
    | Ok j -> j
    | Error e -> Alcotest.failf "report JSON does not parse: %s" e
  in
  List.iter
    (fun scheme ->
      Alcotest.(check bool)
        (scheme ^ " headline present") true
        (Obs.Export.find json [ scheme ^ "_fraction" ] <> None))
    (List.map fst Workload.Scenario.schemes)

(* --- aggregate senders (DESIGN.md section 13) -------------------------- *)

let null_endpoint ~on_legacy =
  {
    Workload.Scheme.ep_addr = Wire.Addr.of_int 7;
    ep_send_segment = (fun ~dst:_ _ -> ());
    ep_set_demux = (fun _ -> ());
    ep_send_raw = (fun ~dst:_ ~bytes:_ -> ());
    ep_send_legacy = on_legacy;
    ep_send_request = (fun ~dst:_ ~bytes:_ -> ());
    ep_flood_misbehaving = (fun ~dst:_ ~bytes:_ -> ());
    ep_reacquire_latencies = (fun () -> []);
  }

(* 800 kb/s at 1000 B -> one packet per 10 ms per member. *)
let swarm_stream ~n ~seed ~stop_at () =
  let sim = Sim.create ~seed:99 () in
  let log = ref [] in
  let sw =
    Workload.Swarm.start ~sim ~n ~seed ~rate_bps:800_000. ~start_at:0.25 ~stop_at
      ~emit:(fun ~member ~due -> log := (due, member) :: !log)
      ()
  in
  Sim.run ~until:10. sim;
  (List.rev !log, sw, Sim.events_processed sim)

let flooder_stream ~n ~seed ~stop_at () =
  let sim = Sim.create ~seed:99 () in
  let log = ref [] in
  for i = 0 to n - 1 do
    let ep =
      null_endpoint ~on_legacy:(fun ~dst:_ ~bytes:_ -> log := (Sim.now sim, i) :: !log)
    in
    Workload.Agents.Flooder.start ~sim ~endpoint:ep ~dst:(Wire.Addr.of_int 1) ~rate_bps:800_000.
      ~start_at:0.25 ~stop_at
      ~rng:(Rng.lane ~seed i)
      ~mode:Workload.Agents.Flooder.Legacy ()
  done;
  Sim.run ~until:10. sim;
  List.rev !log

let sorted s = List.sort compare s

let check_streams name a b =
  Alcotest.(check int) (name ^ " packet count") (List.length a) (List.length b);
  Alcotest.(check bool) (name ^ " identical (time, member) stream") true (sorted a = sorted b)

(* The tentpole equivalence: one swarm emits bit-for-bit the stream n
   real flooders driven by the matching Rng lanes would. *)
let swarm_matches_real_flooders () =
  let n = 7 and seed = 42 and stop_at = 2.0 in
  let agg, sw, _ = swarm_stream ~n ~seed ~stop_at () in
  let real = flooder_stream ~n ~seed ~stop_at () in
  Alcotest.(check bool) "emitted something" true (List.length real > 1000);
  check_streams "swarm vs flooders" agg real;
  Alcotest.(check int) "sent counter" (List.length agg) (Workload.Swarm.packets_sent sw);
  Alcotest.(check int) "all retired at stop_at" 0 (Workload.Swarm.live_members sw)

(* The swarm's source group against the closure timers it replaced: one
   [Sim.schedule] timer per member drawing from the same bank emits the
   same stream in the same order, with the same event count, because a
   member's re-arm takes its key where the timer's [schedule] did. *)
let swarm_matches_member_timers () =
  let n = 11 and seed = 5 and stop_at = 1.5 in
  let a, _, events = swarm_stream ~n ~seed ~stop_at () in
  let sim = Sim.create ~seed:99 () in
  let log = ref [] in
  let interval = 1000. *. 8. /. 800_000. in
  let bank = Rng.Bank.create ~seed ~n in
  for i = 0 to n - 1 do
    let phase = Rng.Bank.float bank i interval in
    let rec tick () =
      let now = Sim.now sim in
      if now < stop_at then begin
        log := (now, i) :: !log;
        Sim.schedule sim ~delay:(interval *. (0.95 +. Rng.Bank.float bank i 0.1)) tick
      end
    in
    Sim.schedule_at sim ~time:(0.25 +. phase) tick
  done;
  Sim.run ~until:10. sim;
  Alcotest.(check bool) "same stream, same order" true (a = List.rev !log);
  Alcotest.(check int) "same events" (Sim.events_processed sim) events

(* The scale experiment at e2e's scale_100k size (100k members over 16
   aggregates, 10 s), pinned to the figures the per-member timers and the
   coalesced swarm both gave before the swarm became a source group. *)
let scale_100k_pinned () =
  let r =
    Workload.Scale.run
      {
        Workload.Scale.default with
        Workload.Scale.sc_senders = 100_000;
        sc_aggregates = 16;
        sc_transfers_per_user = 50;
        sc_max_time = 10.;
      }
  in
  Alcotest.(check int) "events" 485_950 r.Workload.Scale.sr_events;
  Alcotest.(check int) "attack packets" 49_986 r.sr_attack_packets;
  Alcotest.(check string) "fraction completed" "0.9728"
    (Printf.sprintf "%.4f" r.sr_fraction_completed);
  Alcotest.(check string) "avg transfer time" "0.2752"
    (Printf.sprintf "%.4f" r.sr_avg_transfer_time);
  Alcotest.(check (float 0.)) "sim end" 10. r.sr_sim_end

(* --- scale experiment --------------------------------------------------- *)

let tiny_scale topology =
  {
    Workload.Scale.default with
    Workload.Scale.sc_topology = topology;
    sc_senders = 200;
    sc_aggregates = 3;
    sc_n_users = 4;
    sc_transfers_per_user = 2;
    sc_max_time = 8.;
  }

let scale_topologies_smoke () =
  List.iter
    (fun topology ->
      let r = Workload.Scale.run (tiny_scale topology) in
      let name = r.Workload.Scale.sr_topology in
      Alcotest.(check bool) (name ^ " attack ran") true (r.Workload.Scale.sr_attack_packets > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s tva completes (%.2f)" name r.Workload.Scale.sr_fraction_completed)
        true
        (r.Workload.Scale.sr_fraction_completed > 0.9))
    [
      Workload.Scale.Scale_dumbbell;
      Workload.Scale.Fan_in { depth = 2; fanout = 3 };
      Workload.Scale.Parking_lot { segments = 2 };
      Workload.Scale.Power_law { routers = 24; edges_per_node = 2 };
    ]

(* Scale's footprint channels: [tva_sim scale --stats] reads its peak
   memory as these Level channels' maxima. *)
let scale_memory_peaks_reported () =
  let obs =
    { Workload.Experiment.obs_default with Workload.Experiment.obs_telemetry_interval = 0.05 }
  in
  let r =
    Workload.Scale.run ~obs (tiny_scale (Workload.Scale.Fan_in { depth = 2; fanout = 3 }))
  in
  match r.Workload.Scale.sr_obs with
  | None -> Alcotest.fail "expected an obs report"
  | Some rep ->
      let peak name =
        match List.find_opt (fun s -> s.Obs.Report.s_name = name) rep.Obs.Report.series with
        | Some s -> s.Obs.Report.s_max
        | None -> Alcotest.failf "%s channel missing" name
      in
      Alcotest.(check bool) "heap_words sampled" true (peak "heap_words" > 1e4);
      Alcotest.(check bool) "pending sampled" true (peak "pending" >= 1.)

(* --- in-run telemetry through the workload layer (DESIGN.md §15) -------- *)

(* The §15 bit-identity claim at the driver level: a telemetry-on run of
   [Experiment.run] and of [Scale.run] must report exactly the workload
   numbers of an unobserved run — the tick chain rides auxiliary events
   that never consume a scheduler sequence number.  (The [events] count
   legitimately differs: aux ticks are processed events.) *)
let telemetry_does_not_perturb_results () =
  let telemetry_on =
    { Workload.Experiment.obs_default with Workload.Experiment.obs_telemetry_interval = 0.1 }
  in
  let cfg = quick_cfg tva 10 (Workload.Experiment.Legacy_flood { rate_bps = 1e6 }) in
  let plain = Workload.Experiment.run cfg in
  let telem = Workload.Experiment.run ~obs:telemetry_on cfg in
  Alcotest.(check (float 0.))
    "fraction identical" plain.Workload.Experiment.fraction_completed
    telem.Workload.Experiment.fraction_completed;
  Alcotest.(check (float 0.))
    "avg time identical" plain.Workload.Experiment.avg_transfer_time
    telem.Workload.Experiment.avg_transfer_time;
  Alcotest.(check (float 0.))
    "sim end identical" plain.Workload.Experiment.sim_end telem.Workload.Experiment.sim_end;
  (match telem.Workload.Experiment.obs with
  | None -> Alcotest.fail "expected an obs report"
  | Some rep ->
      (* and the telemetry actually recorded: interval series + channels *)
      Alcotest.(check (float 0.)) "interval" 0.1 rep.Obs.Report.series_interval;
      let names = List.map (fun s -> s.Obs.Report.s_name) rep.Obs.Report.series in
      List.iter
        (fun chan ->
          Alcotest.(check bool) (chan ^ " channel present") true (List.mem chan names))
        [ "demoted"; "request_bytes"; "drops"; "queue_depth"; "flow_cache"; "events" ];
      Alcotest.(check bool) "queue_depth sampled" true
        (List.exists
           (fun s -> s.Obs.Report.s_name = "queue_depth" && s.Obs.Report.s_windows > 0)
           rep.Obs.Report.series);
      List.iter
        (fun s -> Alcotest.(check bool) "windows recorded" true (s.Obs.Report.s_windows > 0))
        rep.Obs.Report.series);
  let scfg = tiny_scale (Workload.Scale.Fan_in { depth = 2; fanout = 3 }) in
  let splain = Workload.Scale.run scfg in
  let stelem = Workload.Scale.run ~obs:telemetry_on scfg in
  Alcotest.(check (float 0.))
    "scale fraction identical" splain.Workload.Scale.sr_fraction_completed
    stelem.Workload.Scale.sr_fraction_completed;
  Alcotest.(check (float 0.))
    "scale avg time identical" splain.Workload.Scale.sr_avg_transfer_time
    stelem.Workload.Scale.sr_avg_transfer_time;
  Alcotest.(check (float 0.))
    "scale sim end identical" splain.Workload.Scale.sr_sim_end stelem.Workload.Scale.sr_sim_end;
  Alcotest.(check int) "scale attack packets identical" splain.Workload.Scale.sr_attack_packets
    stelem.Workload.Scale.sr_attack_packets;
  Alcotest.(check bool) "scale series recorded" true
    (match stelem.Workload.Scale.sr_obs with
    | Some rep -> rep.Obs.Report.series <> []
    | None -> false)

(* Chaos outcomes must carry measured detector timings: the wipe scenario
   injects at t = 2 s, so the detectors engage shortly after and clear
   before run end. *)
let chaos_measures_engage_recover () =
  let base =
    {
      Workload.Chaos.base_config with
      Workload.Experiment.transfers_per_user = 10;
      max_time = 60.;
    }
  in
  let cell =
    List.find (fun c -> c.Workload.Chaos.cl_label = "wipe") Workload.Chaos.default_suite
  in
  let o = Workload.Chaos.run_cell ~base cell in
  Alcotest.(check bool) "verdict ok" true o.Workload.Chaos.oc_verdict.Faults.Invariants.ok;
  (match o.Workload.Chaos.oc_engage_s with
  | None -> Alcotest.fail "no engage time measured"
  | Some e ->
      Alcotest.(check bool) (Printf.sprintf "engage after injection (%.1fs)" e) true
        (e >= 2.0 && e < 10.));
  (match o.Workload.Chaos.oc_recover_s with
  | None -> Alcotest.fail "no recover time measured"
  | Some r -> Alcotest.(check bool) (Printf.sprintf "recover bounded (%.1fs)" r) true (r >= 0.));
  Alcotest.(check (list string)) "no flight dumps without --flight-dir" []
    o.Workload.Chaos.oc_flight_dumps;
  Alcotest.(check bool) "incidents in the report" true
    (o.Workload.Chaos.oc_report.Obs.Report.incidents <> []);
  (* recovered iff no incident stayed open to run end: a clear stamped by
     Detect.finish must not pass for a measured recovery *)
  Alcotest.(check bool) "recovered consistent with incidents"
    (List.for_all
       (fun (i : Obs.Detect.incident) -> not i.Obs.Detect.in_open)
       o.Workload.Chaos.oc_report.Obs.Report.incidents)
    o.Workload.Chaos.oc_recovered

(* [Harness.counters_for] memoizes by node id but resolves through the
   name-keyed registry on first touch: one instance per node, rows in
   first-touch order, one row per name, and nodes added after [setup]
   still resolve, also through the bridge, and are named in the trace. *)
let harness_counters_memo () =
  let module H = Workload.Experiment.Harness in
  let sim = Sim.create () in
  let net = Net.create sim in
  let sink _ ~in_link:_ _ = () in
  let addr = Wire.Addr.of_int in
  let a = Net.add_node ~addr:(addr 1) ~name:"a" net sink in
  let r = Net.add_node ~name:"r" net (fun node ~in_link:_ p -> Net.forward node p) in
  let b = Net.add_node ~addr:(addr 2) ~name:"b" net sink in
  let dup1 = Net.add_node ~name:"dup" net sink in
  let dup2 = Net.add_node ~name:"dup" net sink in
  let q () = Droptail.create ~capacity_bytes:100_000 () in
  ignore (Net.duplex net a r ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:q);
  ignore (Net.duplex net r b ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:q);
  let h =
    H.setup
      { Workload.Experiment.obs_default with Workload.Experiment.obs_trace_capacity = 64 }
      ~sim ~net ~scheme:(Workload.Scheme.internet () sim)
  in
  let late = Net.add_node ~addr:(addr 3) ~name:"late" net sink in
  ignore (Net.link_oneway net ~src:late ~dst:b ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:(q ()));
  Net.compute_routes net;
  let cb = H.counters_for h b in
  let cdup = H.counters_for h dup1 in
  ignore (H.counters_for h a);
  Alcotest.(check bool) "memoized: same instance" true (H.counters_for h b == cb);
  Alcotest.(check bool) "one name, one instance" true (H.counters_for h dup2 == cdup);
  let clate = H.counters_for h late in
  Alcotest.(check bool) "late node resolves to one instance" true (H.counters_for h late == clate);
  let packet src =
    Wire.Packet.make ~src:(addr src) ~dst:(addr 2) (Wire.Packet.Raw 500)
  in
  Net.originate a (packet 1);
  Net.originate late (packet 3);
  Sim.run sim;
  let report = H.report h ~wall_s:0. in
  Alcotest.(check (list string)) "registry in first-touch order"
    [ "b"; "dup"; "a"; "late"; "r" ]
    (List.map fst report.Obs.Report.counters);
  Alcotest.(check int) "late transmit counted" 1 (Obs.Counters.get clate Obs.Event.Transmitted);
  let traced =
    String.split_on_char '\n' (Option.value ~default:"" report.Obs.Report.trace_jsonl)
    |> List.filter_map (fun line ->
           match Obs.Export.parse line with
           | Ok (Obs.Export.Obj kv) -> (
               match List.assoc_opt "node" kv with Some (Obs.Export.String n) -> Some n | _ -> None)
           | _ -> None)
  in
  let has node = List.mem node traced in
  Alcotest.(check bool) "trace names a node known at setup" true (has "r");
  Alcotest.(check bool) "trace names a node added after setup" true (has "late")

(* The ablations' prose claims at runtest size: per-destination queueing
   shields the spoofed sender (Sec. 7) and a C/(N/T)min flow cache cannot
   be exhausted (Sec. 3.6), while the other variant of each loses.  A cell
   that attempted nothing reads [None] and fails rather than passing. *)
let ablation_claims () =
  let completed label (r : Workload.Experiment.result) =
    match Workload.Metrics.fraction_completed_opt r.Workload.Experiment.metrics with
    | Some f -> f
    | None -> Alcotest.failf "%s: no transfer attempted" label
  in
  let check (c : Workload.Ablation.comparison) =
    let a = completed c.Workload.Ablation.label_a c.Workload.Ablation.result_a in
    let b = completed c.Workload.Ablation.label_b c.Workload.Ablation.result_b in
    Alcotest.(check bool) (Printf.sprintf "%s completes (%.3f)" c.label_a a) true (a >= 0.99);
    Alcotest.(check bool) (Printf.sprintf "%s loses (%.3f)" c.label_b b) true (b <= 0.6)
  in
  check (Workload.Ablation.queueing_discipline ~transfers:5 ~max_time:20. ());
  check (Workload.Ablation.state_provisioning ~transfers:5 ~max_time:20. ())

(* A [Custom] attack adds its nodes after the obs harness is set up: an
   observed run must read exactly what an unobserved one does, and its
   counters must name the node the attack added. *)
let custom_attack_under_obs () =
  let attack sim (scheme : Workload.Scheme.t) (topo : Topology.t) =
    let net = topo.Topology.net in
    let node =
      Topology.attach_host ~make_qdisc:scheme.Workload.Scheme.make_qdisc ~net
        ~router:topo.Topology.left ~addr:(Topology.attacker_addr 0) ~name:"custom-flooder" ()
    in
    Net.compute_routes net;
    let endpoint =
      scheme.Workload.Scheme.make_endpoint node ~role:Workload.Scheme.Attacker
        ~policy:(Tva.Policy.client ())
    in
    Workload.Agents.Flooder.start ~sim ~endpoint ~dst:Topology.destination_addr ~rate_bps:5e6
      ~mode:Workload.Agents.Flooder.Legacy ()
  in
  let cfg = quick_cfg ~transfers:5 ~max_time:20. tva 0 (Workload.Experiment.Custom attack) in
  let plain = Workload.Experiment.run cfg in
  let observed = Workload.Experiment.run ~obs:Workload.Experiment.obs_default cfg in
  let module E = Workload.Experiment in
  Alcotest.(check (float 0.)) "fraction identical" plain.E.fraction_completed
    observed.E.fraction_completed;
  Alcotest.(check (float 0.)) "avg time identical" plain.E.avg_transfer_time
    observed.E.avg_transfer_time;
  Alcotest.(check int) "events identical" plain.E.events observed.E.events;
  Alcotest.(check (float 0.)) "sim end identical" plain.E.sim_end observed.E.sim_end;
  match observed.E.obs with
  | None -> Alcotest.fail "expected an obs report"
  | Some rep ->
      let counters = List.assoc_opt "custom-flooder" rep.Obs.Report.counters in
      Alcotest.(check bool) "the attack's node is counted" true
        (match counters with
        | Some c -> c.(Obs.Event.to_int Obs.Event.Transmitted) > 0
        | None -> false)

(* Scale telemetry baselines its cumulative channels before the run, so
   window 1 holds the events of (0, interval] rather than a zero delta
   against itself; the windows together never exceed the run's total. *)
let scale_telemetry_first_window_counts () =
  let obs =
    {
      Workload.Experiment.obs_default with
      Workload.Experiment.obs_telemetry_interval = 0.1;
    }
  in
  let r = Workload.Scale.run ~obs (tiny_scale (Workload.Scale.Fan_in { depth = 2; fanout = 3 })) in
  let windows =
    match r.Workload.Scale.sr_obs with
    | Some { Obs.Report.series_json = Some (Obs.Export.Obj fields); _ } -> (
        match List.assoc_opt "windows" fields with
        | Some (Obs.Export.List ws) -> ws
        | _ -> Alcotest.fail "telemetry dump has no windows")
    | _ -> Alcotest.fail "expected a telemetry dump"
  in
  let events = function
    | Obs.Export.Obj row -> (
        match List.assoc_opt "events" row with
        | Some (Obs.Export.Float v) -> v
        | _ -> Alcotest.fail "window has no events channel")
    | _ -> Alcotest.fail "window is not an object"
  in
  match windows with
  | [] -> Alcotest.fail "no windows recorded"
  | first :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "window 1 events > 0 (%g)" (events first))
        true
        (events first > 0.);
      let total = List.fold_left (fun acc w -> acc +. events w) 0. windows in
      Alcotest.(check bool) "windows sum to at most the run's events" true
        (total <= float_of_int r.Workload.Scale.sr_events)

let suite =
  [
    Alcotest.test_case "all schemes healthy unattacked" `Slow baseline_all_schemes_healthy;
    Alcotest.test_case "tva vs legacy flood" `Slow tva_unaffected_by_legacy_flood;
    Alcotest.test_case "tva client policy liveness past 256 s" `Slow tva_client_policy_liveness;
    Alcotest.test_case "internet collapse" `Slow internet_collapses_under_legacy_flood;
    Alcotest.test_case "siff partial degradation" `Slow siff_partially_degrades_under_legacy_flood;
    Alcotest.test_case "tva vs request flood" `Slow tva_unaffected_by_request_flood;
    Alcotest.test_case "tva vs authorized flood" `Slow tva_survives_authorized_flood;
    Alcotest.test_case "siff vs authorized flood" `Slow siff_starved_by_authorized_flood;
    Alcotest.test_case "fig11 bounded damage" `Slow imprecise_policy_damage_is_bounded;
    Alcotest.test_case "metrics accounting" `Quick metrics_accounting;
    Alcotest.test_case "metrics merge" `Quick metrics_merge;
    Alcotest.test_case "experiment deterministic" `Slow experiment_deterministic;
    Alcotest.test_case "parallel sweep = sequential sweep" `Slow parallel_sweep_matches_sequential;
    Alcotest.test_case "scenario render" `Quick scenario_render_shapes;
    Alcotest.test_case "jain index algebra" `Quick jain_index_algebra;
    Alcotest.test_case "jain index no data" `Quick jain_index_opt_no_data;
    Alcotest.test_case "median transfer time" `Quick median_transfer_time_shapes;
    Alcotest.test_case "report deterministic across jobs" `Slow report_deterministic_across_jobs;
    Alcotest.test_case "swarm = n real flooders" `Quick swarm_matches_real_flooders;
    Alcotest.test_case "swarm = per-member timers" `Quick swarm_matches_member_timers;
    Alcotest.test_case "scale 100k pinned figures" `Slow scale_100k_pinned;
    Alcotest.test_case "scale topologies smoke" `Slow scale_topologies_smoke;
    Alcotest.test_case "scale memory gauges" `Slow scale_memory_peaks_reported;
    Alcotest.test_case "telemetry does not perturb results" `Slow telemetry_does_not_perturb_results;
    Alcotest.test_case "chaos measures engage/recover" `Slow chaos_measures_engage_recover;
    Alcotest.test_case "scale telemetry first window counts" `Slow
      scale_telemetry_first_window_counts;
    Alcotest.test_case "harness counters memo" `Quick harness_counters_memo;
    Alcotest.test_case "ablation claims" `Slow ablation_claims;
    Alcotest.test_case "custom attack under obs" `Slow custom_attack_under_obs;
  ]
