(* tva_sim — command-line driver for every experiment in the paper's
   evaluation (Figs. 8-12, Table 1) plus the ablations called out in
   DESIGN.md.  All output is the same tabular shape as the paper's
   figures; --csv switches to machine-readable output. *)

open Cmdliner

let ints_conv = Arg.(list int)

let attackers_arg =
  let doc = "Comma-separated attacker counts to sweep." in
  Arg.(value & opt ints_conv Workload.Scenario.default_attacker_counts & info [ "attackers" ] ~doc)

let transfers_arg =
  let doc = "Transfers each legitimate user performs (paper: 1000)." in
  Arg.(value & opt int 50 & info [ "transfers" ] ~doc)

let max_time_arg =
  let doc = "Simulated-time cutoff per run, in seconds." in
  Arg.(value & opt float 120. & info [ "max-time" ] ~doc)

let seed_arg =
  let doc = "PRNG seed (runs are deterministic given the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let csv_arg =
  let doc = "Emit CSV instead of an aligned table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for independent simulation runs (sweep cells, ablation variants).  \
     Defaults to all cores; 1 runs sequentially.  Output is bit-identical for any value."
  in
  Arg.(value & opt int (Pool.default_jobs ()) & info [ "j"; "jobs" ] ~doc ~docv:"N")

(* Both scheme lists come from the registry, so a scheme added to
   [Workload.Scenario.schemes] shows up on every CLI surface by itself.
   The figure sweeps default to the paper's four so their output stays
   pinned; everything else offers the full set. *)
let all_scheme_names = List.map fst Workload.Scenario.schemes
let paper_scheme_names = List.map fst Workload.Scenario.paper_schemes

let schemes_arg =
  let doc =
    Printf.sprintf "Comma-separated subset of schemes (%s)." (String.concat "," all_scheme_names)
  in
  Arg.(value & opt (list string) paper_scheme_names & info [ "schemes" ] ~doc)

let stats_arg =
  let doc = "Write an observability report (counters, per-link queue stats, flow caches) as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "stats" ] ~doc ~docv:"FILE")

let trace_arg =
  let doc = "Enable the packet-lifecycle trace ring and dump it as JSONL to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let trace_sample_arg =
  let doc = "Record 1 in $(docv) trace-eligible packet events." in
  Arg.(value & opt int 1 & info [ "trace-sample" ] ~doc ~docv:"K")

let telemetry_arg =
  let doc =
    "Record interval telemetry every $(docv) sim-seconds (0.1 when given without a value): \
     counter deltas, queue depths and flow-cache occupancy, watched by the incident \
     detectors.  Telemetry ticks ride auxiliary scheduler events, so results are \
     bit-identical to a run without this option."
  in
  Arg.(value & opt ~vopt:(Some 0.1) (some float) None & info [ "telemetry" ] ~doc ~docv:"SECONDS")

(* The interval in sim-seconds, 0 = telemetry off; [implied] turns it on
   at 0.1 without the option (a flight recorder needs the series). *)
let resolve_telemetry_interval ~implied = function
  | Some s ->
      if s <= 0. then failwith "--telemetry must be positive";
      s
  | None -> if implied then 0.1 else 0.

let flight_dir_arg =
  let doc =
    "Enable the flight recorder: on each incident onset (and any chaos invariant failure) \
     freeze the last telemetry windows, incidents and packet trace into a self-contained \
     $(i,flight_<label>_<n>.json) dump under $(docv).  Implies $(b,--telemetry)."
  in
  Arg.(value & opt (some string) None & info [ "flight-dir" ] ~doc ~docv:"DIR")

let base_config transfers max_time seed =
  { Workload.Experiment.default with Workload.Experiment.transfers_per_user = transfers; max_time; seed }

let select_schemes names =
  List.iter
    (fun n ->
      if not (List.mem n all_scheme_names) then
        failwith
          (Printf.sprintf "unknown scheme %s (known: %s)" n (String.concat "," all_scheme_names)))
    names;
  List.filter (fun (n, _) -> List.mem n names) Workload.Scenario.schemes

let print_table csv table =
  print_string (if csv then Stats.Table.to_csv table else Stats.Table.render table)

(* "-" writes to standard output, so a result can be piped straight into
   a diff (results/dune does). *)
let write_file path contents =
  if path = "-" then print_string contents
  else begin
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  end

(* Cells that ran with observability, tagged with their grid position:
   scheme-major, then attacker count. *)
let observed_cells series =
  List.concat_map
    (fun (s : Workload.Scenario.series) ->
      List.filter_map
        (fun (p : Workload.Scenario.point) ->
          Option.map (fun r -> (s.scheme, p.n_attackers, r)) p.report)
        s.points)
    series

(* Sweep stats file: the counters merged across every grid cell, then each
   cell's full report keyed by its grid position. *)
let sweep_stats_json series =
  let cells = observed_cells series in
  Obs.Export.to_string_pretty
    (Obs.Export.Obj
       [
         ( "merged_counters",
           Obs.Report.counters_json
             (Obs.Report.merge_counters (List.map (fun (_, _, r) -> r) cells)) );
         ( "cells",
           Obs.Export.List
             (List.map
                (fun (scheme, attackers, report) ->
                  Obs.Export.Obj
                    [
                      ("scheme", Obs.Export.String scheme);
                      ("attackers", Obs.Export.Int attackers);
                      ("report", Obs.Report.to_json report);
                    ])
                cells) );
       ])

(* Sweep trace file: each cell's JSONL records, preceded by a cell-marker
   line (itself a JSON object, so the file stays line-delimited JSON). *)
let sweep_trace_jsonl series =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (scheme, attackers, (report : Obs.Report.t)) ->
      match report.trace_jsonl with
      | None -> ()
      | Some body ->
          Buffer.add_string buf
            (Printf.sprintf "{\"cell\": {\"scheme\": \"%s\", \"attackers\": %d}}\n" scheme
               attackers);
          Buffer.add_string buf body)
    (observed_cells series);
  Buffer.contents buf

let sweep_obs_config ~trace ~trace_sample =
  {
    Workload.Experiment.obs_default with
    Workload.Experiment.obs_trace_capacity = (if trace = None then 0 else 65536);
    obs_trace_sample = trace_sample;
  }

let sweep_cmd name ~doc ~attack =
  let run attackers transfers max_time seed csv schemes jobs stats trace trace_sample =
    let base = base_config transfers max_time seed in
    let schemes = select_schemes schemes in
    let obs =
      if stats = None && trace = None then None
      else Some (sweep_obs_config ~trace ~trace_sample)
    in
    let series =
      Workload.Scenario.flood_sweep ~jobs ?obs ~schemes ~attacker_counts:attackers ~base ~attack ()
    in
    print_table csv (Workload.Scenario.render series);
    Option.iter (fun path -> write_file path (sweep_stats_json series)) stats;
    Option.iter (fun path -> write_file path (sweep_trace_jsonl series)) trace
  in
  Cmd.v
    (Cmd.info name ~doc)
    Term.(
      const run $ attackers_arg $ transfers_arg $ max_time_arg $ seed_arg $ csv_arg $ schemes_arg
      $ jobs_arg $ stats_arg $ trace_arg $ trace_sample_arg)

let legacy_flood ~rate_bps = Workload.Experiment.Legacy_flood { rate_bps }

let fig8_cmd =
  sweep_cmd "fig8" ~doc:"Legacy traffic floods (paper Fig. 8)." ~attack:legacy_flood

let fig9_cmd =
  sweep_cmd "fig9" ~doc:"Request packet floods (paper Fig. 9)."
    ~attack:(fun ~rate_bps -> Workload.Experiment.Request_flood { rate_bps })

let fig10_cmd =
  sweep_cmd "fig10" ~doc:"Authorized floods via a colluder (paper Fig. 10)."
    ~attack:(fun ~rate_bps -> Workload.Experiment.Authorized_flood { rate_bps })

let fig11_cmd =
  let doc = "Imprecise authorization policies (paper Fig. 11)." in
  let run duration seed csv jobs =
    let base = { Workload.Experiment.default with Workload.Experiment.seed = seed } in
    let runs = Workload.Scenario.fig11 ~jobs ~base ~duration () in
    print_table csv (Workload.Scenario.render_fig11 runs ~bins:5.)
  in
  let duration_arg =
    Arg.(value & opt float 60. & info [ "duration" ] ~doc:"Simulated seconds (attack at t=10).")
  in
  Cmd.v (Cmd.info "fig11" ~doc) Term.(const run $ duration_arg $ seed_arg $ csv_arg $ jobs_arg)

(* Table 1 on the real router with the prototype's crypto and with the
   simulator's SipHash, as (prototype, siphash) rows; exits 1 if any op's
   packets leave its branch.  The prototype's hashing ops cost
   microseconds, so they get 16 passes to SipHash's 512 and the run stays
   at a few seconds.  SipHash goes first: run after the prototype's
   seconds of hashing, its validate/legacy ratio read 23.5x on average
   against 22.2x (15 alternating runs each, shared 2-core host). *)
let measure_table1 () =
  let measure hash passes =
    Forwarder.Fastpath.measure (Forwarder.Fastpath.create ~hash ()) ~passes
      Forwarder.Fastpath.all_ops
  in
  match
    let siphash = measure (module Crypto.Keyed_hash.Fast) 512 in
    (measure (module Crypto.Keyed_hash.Prototype) 16, siphash)
  with
  | rows -> rows
  | exception Failure msg ->
      prerr_endline ("tva_sim: " ^ msg);
      exit 1

let table1_cmd =
  let doc =
    "Per-packet processing cost of each packet type (paper Table 1), with the prototype's crypto \
     and with SipHash.  Exits 1 if a packet leaves its branch or a SipHash stage exceeds its \
     budget as a multiple of the legacy forward."
  in
  let run csv =
    let prototype, siphash = measure_table1 () in
    let table =
      Stats.Table.create
        ~columns:[ "packet type"; "prototype ns"; "siphash ns"; "siphash minor words/pkt" ]
    in
    List.iter2
      (fun (op, (p : Forwarder.Fastpath.measurement)) (_, (s : Forwarder.Fastpath.measurement)) ->
        Stats.Table.add_row table
          [
            Forwarder.Fastpath.op_name op;
            Printf.sprintf "%.0f" p.ns_per_packet;
            Printf.sprintf "%.1f" s.ns_per_packet;
            Printf.sprintf "%.2f" s.minor_words_per_packet;
          ])
      prototype siphash;
    print_table csv table;
    flush stdout;
    (* The stage ratios go to stderr, so stdout stays the table. *)
    let ratios = Forwarder.Fastpath.stage_ratios siphash in
    List.iter
      (fun (op, ratio, budget) ->
        Printf.eprintf "tva_sim: siphash %s costs %.1fx legacy (budget %gx)%s\n"
          (Forwarder.Fastpath.op_name op) ratio budget
          (if ratio > budget then ": OVER BUDGET" else ""))
      ratios;
    if List.exists (fun (_, ratio, budget) -> ratio > budget) ratios then exit 1
  in
  Cmd.v (Cmd.info "table1" ~doc) Term.(const run $ csv_arg)

let fig12_cmd =
  let doc = "Forwarding rate vs input rate (paper Fig. 12)." in
  let run lrp measured csv =
    let discipline = if lrp then Forwarder.Livelock.Lrp else Forwarder.Livelock.Naive in
    (* Per-type processing costs: the paper's Table 1 values by default
       (shape reproduction on the paper's hardware), or timed on this
       machine's router with --measured. *)
    let costs =
      if measured then
        List.map
          (fun (op, (m : Forwarder.Fastpath.measurement)) ->
            (Forwarder.Fastpath.op_name op, m.ns_per_packet *. 1e-9))
          (fst (measure_table1 ()))
      else
        [
          ("legacy IP forward", 10e-9);
          ("request", 460e-9);
          ("regular w/ cached entry", 33e-9);
          ("regular w/o cached entry", 1486e-9);
          ("renewal w/ cached entry", 439e-9);
          ("renewal w/o cached entry", 1821e-9);
        ]
    in
    let inputs = List.init 21 (fun i -> float_of_int i *. 20_000.) in
    let table =
      Stats.Table.create ~columns:("input_kpps" :: List.map (fun (n, _) -> n) costs)
    in
    List.iter
      (fun input_pps ->
        let row =
          Printf.sprintf "%.0f" (input_pps /. 1e3)
          :: List.map
               (fun (_, processing_s) ->
                 Printf.sprintf "%.1f"
                   (Forwarder.Livelock.output_rate discipline
                      ~interrupt_s:Forwarder.Livelock.default_interrupt_s ~processing_s ~input_pps
                   /. 1e3))
               costs
        in
        Stats.Table.add_row table row)
      inputs;
    print_table csv table
  in
  let lrp_arg = Arg.(value & flag & info [ "lrp" ] ~doc:"Use lazy receiver processing.") in
  let measured_arg =
    Arg.(value & flag & info [ "measured" ] ~doc:"Calibrate costs on this machine instead of Table 1.")
  in
  Cmd.v (Cmd.info "fig12" ~doc) Term.(const run $ lrp_arg $ measured_arg $ csv_arg)

let scheme_arg =
  Arg.(
    value
    & opt string "tva"
    & info [ "scheme" ] ~doc:(String.concat " | " all_scheme_names))

let nattackers_arg = Arg.(value & opt int 10 & info [ "n" ] ~doc:"Number of attackers.")

let attack_arg =
  Arg.(
    value
    & opt string "legacy"
    & info [ "attack" ] ~doc:"none | legacy | request | authorized | imprecise")

let single_config scheme_name n attack transfers max_time seed =
  let scheme =
    match List.assoc_opt scheme_name Workload.Scenario.schemes with
    | Some s -> s
    | None -> failwith ("unknown scheme " ^ scheme_name)
  in
  let attack =
    match attack with
    | "none" -> Workload.Experiment.No_attack
    | "legacy" -> Workload.Experiment.Legacy_flood { rate_bps = 1e6 }
    | "request" -> Workload.Experiment.Request_flood { rate_bps = 1e6 }
    | "authorized" -> Workload.Experiment.Authorized_flood { rate_bps = 1e6 }
    | "imprecise" ->
        Workload.Experiment.Imprecise_flood
          { rate_bps = 1e6; groups = 1; group_interval = 3.; start_at = 10. }
    | other -> failwith ("unknown attack " ^ other)
  in
  {
    (base_config transfers max_time seed) with
    Workload.Experiment.scheme;
    n_attackers = n;
    attack;
  }

(* The experiment summary that heads a single-run stats file.  Metrics that
   never had data ("no transfers attempted", "none completed") export as
   JSON null, not a fake 1.0 or NaN. *)
let experiment_json (r : Workload.Experiment.result) ~attackers =
  Obs.Export.Obj
    [
      ("scheme", Obs.Export.String r.Workload.Experiment.scheme_name);
      ("attackers", Obs.Export.Int attackers);
      ( "fraction_completed",
        match Workload.Metrics.fraction_completed_opt r.Workload.Experiment.metrics with
        | None -> Obs.Export.Null
        | Some f -> Obs.Export.Float f );
      ("avg_transfer_time_s", Obs.Export.number_or_null r.Workload.Experiment.avg_transfer_time);
      ("attempted", Obs.Export.Int (Workload.Metrics.attempted r.Workload.Experiment.metrics));
      ("completed", Obs.Export.Int (Workload.Metrics.completed r.Workload.Experiment.metrics));
      ("aborted", Obs.Export.Int (Workload.Metrics.aborted r.Workload.Experiment.metrics));
      ("sim_end_s", Obs.Export.Float r.Workload.Experiment.sim_end);
    ]

let run_stats_json (r : Workload.Experiment.result) ~attackers report =
  Obs.Export.to_string_pretty
    (Obs.Export.Obj
       [
         ("experiment", experiment_json r ~attackers);
         ("report", Obs.Report.to_json report);
       ])

let run_cmd =
  let doc = "One custom experiment run." in
  let run scheme_name n attack transfers max_time seed stats trace trace_sample telemetry
      flight_dir =
    let cfg = single_config scheme_name n attack transfers max_time seed in
    let ti = resolve_telemetry_interval ~implied:(flight_dir <> None) telemetry in
    let r =
      if stats = None && trace = None && ti = 0. then Workload.Experiment.run cfg
      else
        (* Counters, the net-event bridge, the wall-time profiler and (if
           asked) the trace ring and telemetry; none of them schedules a
           normal event, so the simulated outcome is identical to the
           unobserved run. *)
        let obs =
          {
            Workload.Experiment.obs_trace_capacity = (if trace = None then 0 else 65536);
            obs_trace_sample = trace_sample;
            obs_profile = true;
            obs_telemetry_interval = ti;
            obs_flight_dir = flight_dir;
            obs_flight_label = "run";
          }
        in
        Workload.Experiment.run ~obs cfg
    in
    Printf.printf "scheme=%s attackers=%d fraction_completed=%.4f avg_transfer_time=%.4fs\n"
      r.Workload.Experiment.scheme_name n r.fraction_completed r.avg_transfer_time;
    Printf.printf "attempted=%d completed=%d aborted=%d sim_end=%.1fs\n"
      (Workload.Metrics.attempted r.metrics)
      (Workload.Metrics.completed r.metrics)
      (Workload.Metrics.aborted r.metrics)
      r.sim_end;
    (match r.Workload.Experiment.flight with
    | Some f ->
        List.iter (fun p -> Printf.printf "flight-dump %s\n" p) (Obs.Flight.dumps f)
    | None -> ());
    match r.Workload.Experiment.obs with
    | None -> ()
    | Some report ->
        if ti > 0. then Format.printf "@.%a" Obs.Report.pp_series report;
        if ti > 0. then Format.printf "%a" Obs.Report.pp_incidents report.Obs.Report.incidents;
        Option.iter (fun path -> write_file path (run_stats_json r ~attackers:n report)) stats;
        Option.iter
          (fun path ->
            write_file path (Option.value ~default:"" report.Obs.Report.trace_jsonl))
          trace
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ scheme_arg $ nattackers_arg $ attack_arg $ transfers_arg $ max_time_arg
      $ seed_arg $ stats_arg $ trace_arg $ trace_sample_arg $ telemetry_arg $ flight_dir_arg)

let dashboard_cmd =
  let doc =
    "Run one experiment with full observability (counters, profiler, interval telemetry and \
     incident detection) and render a text dashboard."
  in
  let run scheme_name n attack transfers max_time seed stats telemetry =
    let cfg = single_config scheme_name n attack transfers max_time seed in
    let obs =
      {
        Workload.Experiment.obs_trace_capacity = 0;
        obs_trace_sample = 1;
        obs_profile = true;
        obs_telemetry_interval = resolve_telemetry_interval ~implied:true telemetry;
        obs_flight_dir = None;
        obs_flight_label = "dashboard";
      }
    in
    let r = Workload.Experiment.run ~obs cfg in
    Printf.printf "scheme=%s attackers=%d fraction_completed=%.4f avg_transfer_time=%.4fs\n\n"
      r.Workload.Experiment.scheme_name n r.fraction_completed r.avg_transfer_time;
    (match r.Workload.Experiment.obs with
    | None -> ()
    | Some report ->
        Format.printf "%a@." Obs.Report.pp_dashboard report;
        Option.iter (fun path -> write_file path (run_stats_json r ~attackers:n report)) stats)
  in
  Cmd.v (Cmd.info "dashboard" ~doc)
    Term.(
      const run $ scheme_arg $ nattackers_arg $ attack_arg $ transfers_arg $ max_time_arg
      $ seed_arg $ stats_arg $ telemetry_arg)

(* --- chaos: fault injection + recovery checking ---------------------- *)

let chaos_stats_json outcomes =
  Obs.Export.to_string_pretty
    (Obs.Export.List
       (List.map
          (fun (o : Workload.Chaos.outcome) ->
            Obs.Export.Obj
              [
                ("scenario", Obs.Export.String o.Workload.Chaos.oc_label);
                ("spec", Obs.Export.String o.oc_spec);
                ("fraction_completed", Obs.Export.number_or_null o.oc_fraction);
                ("avg_transfer_time_s", Obs.Export.number_or_null o.oc_avg_time);
                ( "injected",
                  Obs.Export.Obj
                    (List.map (fun (clause, n) -> (clause, Obs.Export.Int n)) o.oc_injected) );
                ( "reacquire_latencies_s",
                  Obs.Export.List (List.map (fun l -> Obs.Export.Float l) o.oc_latencies) );
                ( "engage_s",
                  match o.oc_engage_s with
                  | None -> Obs.Export.Null
                  | Some v -> Obs.Export.Float v );
                ( "recover_s",
                  match o.oc_recover_s with
                  | None -> Obs.Export.Null
                  | Some v -> Obs.Export.Float v );
                ("recovered", Obs.Export.Bool o.oc_recovered);
                ( "flight_dumps",
                  Obs.Export.List
                    (List.map (fun p -> Obs.Export.String p) o.oc_flight_dumps) );
                ( "verdict",
                  Obs.Export.Obj
                    [
                      ("ok", Obs.Export.Bool o.oc_verdict.Faults.Invariants.ok);
                      ( "checks",
                        Obs.Export.List
                          (List.map
                             (fun (c : Faults.Invariants.check) ->
                               Obs.Export.Obj
                                 [
                                   ("name", Obs.Export.String c.Faults.Invariants.ck_name);
                                   ("ok", Obs.Export.Bool c.ck_ok);
                                   ("detail", Obs.Export.String c.ck_detail);
                                 ])
                             o.oc_verdict.Faults.Invariants.checks) );
                    ] );
                ("report", Obs.Report.to_json o.oc_report);
              ])
          outcomes))

let chaos_cmd =
  let doc =
    "Fault-injection runs with recovery checking (paper Sec. 3.8).  Without $(b,--faults), \
     the stock eight-scenario suite; with it, one run under the given spec.  Exits non-zero \
     if any recovery invariant fails."
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ]
          ~doc:
            "Fault spec: semicolon-separated $(i,kind:target\\[:k=v,...\\]) clauses, e.g. \
             'loss:bottleneck:p=0.01;wipe:all:at=10'.  Kinds: loss, burst, corrupt, dup, \
             reorder, down, flap (link targets: bottleneck, rbottleneck, access, all); wipe, \
             rotate, restart (router targets: left, right, all)."
          ~docv:"SPEC")
  in
  (* Unlike [run], chaos defaults to a clean workload — no attackers — so
     every degradation in the table is the injected fault's doing. *)
  let chaos_nattackers_arg =
    Arg.(value & opt int 0 & info [ "n" ] ~doc:"Number of attackers (default 0).")
  in
  let chaos_attack_arg =
    Arg.(
      value
      & opt string "none"
      & info [ "attack" ] ~doc:"none | legacy | request | authorized | imprecise")
  in
  let run faults scheme_name n attack transfers max_time seed csv jobs stats flight_dir =
    let base = single_config scheme_name n attack transfers max_time seed in
    let outcomes =
      match faults with
      | None -> Workload.Chaos.run_suite ~jobs ?flight_dir ~base Workload.Chaos.default_suite
      | Some spec_str -> (
          match Faults.Spec.parse spec_str with
          | Error e ->
              prerr_endline ("tva_sim chaos: bad --faults spec: " ^ e);
              exit 2
          | Ok spec ->
              [
                Workload.Chaos.run_cell ?flight_dir ~base
                  {
                    Workload.Chaos.cl_label = "custom";
                    cl_spec = spec;
                    cl_expect = Faults.Invariants.relaxed;
                  };
              ])
    in
    print_table csv (Workload.Chaos.render outcomes);
    List.iter
      (fun (o : Workload.Chaos.outcome) ->
        Format.printf "@.%s (%s)@.%a" o.Workload.Chaos.oc_label o.oc_spec
          Faults.Invariants.pp_verdict o.oc_verdict;
        List.iter (fun p -> Printf.printf "flight-dump %s\n" p) o.oc_flight_dumps)
      outcomes;
    Option.iter (fun path -> write_file path (chaos_stats_json outcomes)) stats;
    if not (Workload.Chaos.all_ok outcomes) then exit 1
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ faults_arg $ scheme_arg $ chaos_nattackers_arg $ chaos_attack_arg
      $ transfers_arg $ max_time_arg $ seed_arg $ csv_arg $ jobs_arg $ stats_arg
      $ flight_dir_arg)

let ablation_cmd name ~doc ~run_comparison =
  let run transfers max_time seed csv jobs =
    print_table csv
      (Workload.Ablation.render (run_comparison ~jobs ~transfers ~max_time ~seed ()))
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ transfers_arg $ max_time_arg $ seed_arg $ csv_arg $ jobs_arg)

let ablation_queueing_cmd =
  ablation_cmd "ablation-queueing"
    ~doc:
      "Per-source vs per-destination fair queueing under spoofed authorized traffic (paper \
       Sec. 7).  Reported metrics are for the spoofed victim."
    ~run_comparison:(fun ~jobs ~transfers ~max_time ~seed () ->
      Workload.Ablation.queueing_discipline ~jobs ~transfers ~max_time ~seed ())

let ablation_state_cmd =
  ablation_cmd "ablation-state"
    ~doc:
      "Flow-cache provisioning (paper Sec. 3.6): the C/(N/T)min sizing rule vs an \
       under-provisioned cache, under 100 cheap authorized flows plus a legacy flood."
    ~run_comparison:(fun ~jobs ~transfers ~max_time ~seed () ->
      Workload.Ablation.state_provisioning ~jobs ~transfers ~max_time ~seed ())

let ablation_sfq_cmd =
  ablation_cmd "ablation-sfq"
    ~doc:
      "Request queueing discipline (paper Sec. 3.9): bounded per-path-id queues vs stochastic \
       fair queueing under a request flood."
    ~run_comparison:(fun ~jobs ~transfers ~max_time ~seed () ->
      Workload.Ablation.request_queueing ~jobs ~transfers ~max_time ~seed ())


(* --- scale ------------------------------------------------------------- *)

let scale_cmd =
  let doc = "Aggregate-attacker scale run: swarms of spoofed flood members on generated topologies." in
  let run scheme_name topology senders aggregates attack_mbps users transfers max_time seed stats telemetry =
    let scheme =
      match List.assoc_opt scheme_name Workload.Scenario.schemes with
      | Some s -> s
      | None -> failwith ("unknown scheme " ^ scheme_name)
    in
    let topology =
      match Workload.Scale.topology_kind_of_string topology with
      | Ok t -> t
      | Error e -> failwith e
    in
    let cfg =
      {
        Workload.Scale.default with
        Workload.Scale.sc_scheme = scheme;
        sc_topology = topology;
        sc_senders = senders;
        sc_aggregates = aggregates;
        sc_attack_bps = attack_mbps *. 1e6;
        sc_n_users = users;
        sc_transfers_per_user = transfers;
        sc_max_time = max_time;
        sc_seed = seed;
      }
    in
    let ti = resolve_telemetry_interval ~implied:false telemetry in
    let obs =
      if stats = None && ti = 0. then None
      else
        Some
          {
            Workload.Experiment.obs_default with
            Workload.Experiment.obs_profile = stats <> None;
            (* --stats reads its footprint peaks off the telemetry series. *)
            obs_telemetry_interval = (if ti > 0. then ti else 0.1);
          }
    in
    let t0 = Unix.gettimeofday () in
    let r = Workload.Scale.run ?obs cfg in
    let wall = Unix.gettimeofday () -. t0 in
    Printf.printf
      "scheme=%s topology=%s senders=%d fraction_completed=%.4f avg_transfer_time=%.4fs\n"
      r.Workload.Scale.sr_scheme r.sr_topology r.sr_senders r.sr_fraction_completed r.sr_avg_transfer_time;
    Printf.printf "events=%d attack_packets=%d routers=%d sim_end=%.2fs wall=%.2fs (%.0f ev/s)\n"
      r.sr_events r.sr_attack_packets r.sr_routers r.sr_sim_end wall
      (float_of_int r.sr_events /. wall);
    (match r.Workload.Scale.sr_obs with
    | Some report when ti > 0. -> Format.printf "@.%a" Obs.Report.pp_series report
    | Some _ | None -> ());
    match (stats, r.Workload.Scale.sr_obs) with
    | Some path, Some report ->
        let json =
          Obs.Export.to_string_pretty
            (Obs.Export.Obj
               [
                 ( "scale",
                   Obs.Export.Obj
                     [
                       ("scheme", Obs.Export.String r.Workload.Scale.sr_scheme);
                       ("topology", Obs.Export.String r.sr_topology);
                       ("senders", Obs.Export.Int r.sr_senders);
                       ( "fraction_completed",
                         Obs.Export.number_or_null r.sr_fraction_completed );
                       ("events", Obs.Export.Int r.sr_events);
                       ("attack_packets", Obs.Export.Int r.sr_attack_packets);
                       ("wall_s", Obs.Export.Float wall);
                       ("loop_wall_s", Obs.Export.Float r.sr_wall_s);
                       ( "events_per_s",
                         Obs.Export.number_or_null (float_of_int r.sr_events /. r.sr_wall_s) );
                     ] );
                 ("report", Obs.Report.to_json report);
               ])
        in
        write_file path json
    | _ -> ()
  in
  let topology_arg =
    Arg.(
      value
      & opt string "fanin"
      & info [ "topology" ]
          ~doc:"dumbbell | fanin[:depth:fanout] | parking-lot[:segments] | power-law[:n:m]")
  in
  let senders_arg =
    Arg.(value & opt int 10_000 & info [ "senders" ] ~doc:"Total flood members.")
  in
  let aggregates_arg =
    Arg.(value & opt int 8 & info [ "aggregates" ] ~doc:"Swarm objects the members fold into.")
  in
  let attack_mbps_arg =
    Arg.(value & opt float 40. & info [ "attack-mbps" ] ~doc:"Aggregate attack rate, Mb/s.")
  in
  let users_arg = Arg.(value & opt int 10 & info [ "users" ] ~doc:"Legitimate users.") in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(
      const run $ scheme_arg $ topology_arg $ senders_arg $ aggregates_arg
      $ attack_mbps_arg $ users_arg $ transfers_arg $ max_time_arg $ seed_arg $ stats_arg
      $ telemetry_arg)

let report_cmd =
  let doc =
    "Unified cross-scheme fairness report: the fig8-style legacy-flood sweep over all \
     registered schemes, scored by completion fraction, median transfer time, and the Jain \
     fairness index.  Writes results/REPORT.md and BENCH_report.json."
  in
  let report_attackers_arg =
    let doc = "Comma-separated attacker counts for the report sweep." in
    Arg.(value & opt ints_conv Workload.Report.default_attacker_counts & info [ "attackers" ] ~doc)
  in
  let report_schemes_arg =
    let doc =
      Printf.sprintf "Comma-separated subset of schemes (default: all of %s)."
        (String.concat "," all_scheme_names)
    in
    Arg.(value & opt (list string) all_scheme_names & info [ "schemes" ] ~doc)
  in
  let out_arg =
    let doc = "Markdown report output path ($(b,-) for standard output)." in
    Arg.(value & opt string "results/REPORT.md" & info [ "o"; "out" ] ~doc ~docv:"FILE")
  in
  let json_arg =
    let doc = "JSON report output path ($(b,-) for standard output)." in
    Arg.(value & opt string "BENCH_report.json" & info [ "json" ] ~doc ~docv:"FILE")
  in
  let run attackers transfers max_time seed schemes jobs out json_out =
    let base = base_config transfers max_time seed in
    let schemes = select_schemes schemes in
    let series =
      Workload.Scenario.flood_sweep ~jobs ~schemes ~attacker_counts:attackers ~base
        ~attack:legacy_flood ()
    in
    write_file out (Workload.Report.to_markdown series);
    write_file json_out (Workload.Report.to_json series);
    (* A report written to stdout is the whole of stdout. *)
    if out <> "-" && json_out <> "-" then begin
      List.iter print_endline (Workload.Report.headline_rows series);
      Printf.printf "wrote %s and %s\n" out json_out
    end
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const run $ report_attackers_arg $ transfers_arg $ max_time_arg $ seed_arg
      $ report_schemes_arg $ jobs_arg $ out_arg $ json_arg)

let docs_cmd =
  let doc =
    "Print FILE with each generated block re-rendered from the committed artifact that the \
     block's begin comment names, as a path relative to FILE.  Re-runs nothing."
  in
  let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    match Docs.render file with
    | Ok text -> print_string text
    | Error e ->
        prerr_endline ("tva_sim docs: " ^ e);
        exit 1
  in
  Cmd.v (Cmd.info "docs" ~doc) Term.(const run $ file_arg)

let default_info =
  Cmd.info "tva_sim" ~version:"1.0.0"
    ~doc:"Reproduce the evaluation of 'A DoS-limiting Network Architecture' (SIGCOMM 2005)."

let () =
  exit
    (Cmd.eval
       (Cmd.group default_info
          [
            fig8_cmd;
            fig9_cmd;
            fig10_cmd;
            fig11_cmd;
            table1_cmd;
            fig12_cmd;
            report_cmd;
            docs_cmd;
            run_cmd;
            scale_cmd;
            chaos_cmd;
            dashboard_cmd;
            ablation_queueing_cmd;
            ablation_state_cmd;
            ablation_sfq_cmd;
          ]))
