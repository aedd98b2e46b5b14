(* The chaos harness: one experiment run per fault scenario, with the
   injector installed through [Experiment.run ?faults] and the recovery
   invariants checked against the run's observability output. *)

type cell = {
  cl_label : string;
  cl_spec : Faults.Spec.t;
  cl_expect : Faults.Invariants.expectation;
}

type outcome = {
  oc_label : string;
  oc_spec : string;
  oc_fraction : float;
  oc_avg_time : float;
  oc_injected : (string * int) list;
  oc_latencies : float list;
  oc_verdict : Faults.Invariants.verdict;
  oc_report : Obs.Report.t;
  oc_engage_s : float option;
  oc_recover_s : float option;
  oc_recovered : bool;
  oc_flight_dumps : string list;
}

let base_config =
  { Experiment.default with Experiment.scheme = Scheme.tva ~params:Scenario.sim_params () }

(* Chaos runs telemetry by default: the detectors are what turn a fault
   scenario's raw series into the measured engage/recover columns.  The
   tick chain rides auxiliary events, so the workload numbers stay
   bit-identical to a telemetry-off run. *)
let obs_default = { Experiment.obs_default with Experiment.obs_telemetry_interval = 0.1 }

(* One cell = one independent deterministic simulation: the cell carries
   pure data (spec + expectation), [Experiment.run] builds a private
   sim/rng, and the injector's stream splits off it at install time — so
   cells fan out over [Pool.map] and come back bit-identical whatever
   [jobs] is. *)
let run_cell ?(obs = obs_default) ?flight_dir ?(base = base_config) cell =
  let obs =
    {
      obs with
      Experiment.obs_flight_dir =
        (match flight_dir with Some _ -> flight_dir | None -> obs.Experiment.obs_flight_dir);
      obs_flight_label = cell.cl_label;
    }
  in
  let installed = ref None in
  let r =
    Experiment.run ~obs
      ~faults:(fun env users ->
        installed := Some (env, users, Faults.Inject.install env cell.cl_spec))
      base
  in
  let env, users, inj = Option.get !installed in
  let latencies = List.concat_map (fun ep -> ep.Scheme.ep_reacquire_latencies ()) users in
  let report = match r.Experiment.obs with Some o -> o | None -> Obs.Report.empty in
  let router_names =
    List.map (fun site -> site.Faults.Inject.rs_name) env.Faults.Inject.env_routers
  in
  let verdict =
    Faults.Invariants.check cell.cl_expect ~counters:report.Obs.Report.counters
      ~router_names
      ~injected:(Faults.Inject.total_injected inj)
      ~reacquire_latencies:latencies ~fraction:r.Experiment.fraction_completed
  in
  (* The invariant failure itself is a flight trigger: the verdict is
     computed here, inside the (possibly worker-domain) cell run, so the
     dump freezes this run's own rings. *)
  (match r.Experiment.flight with
  | Some f when not verdict.Faults.Invariants.ok ->
      ignore (Obs.Flight.trigger f ~reason:"invariant-failure" ~time:r.Experiment.sim_end)
  | Some _ | None -> ());
  (* Measured engagement and recovery, from the detectors' incidents.  For
     continuous faults (loss, burst) the detectors stay engaged to run end:
     [Detect.finish] closes those incidents at run-end time but leaves
     [in_open] set, so [recovered] tells a true clear from a clear stamped
     at the end of the run. *)
  let engage, recover, recovered =
    match Obs.Detect.engage_recover report.Obs.Report.incidents with
    | None -> (None, None, true)
    | Some (onset, span, cleared) -> (Some onset, Some span, cleared)
  in
  {
    oc_label = cell.cl_label;
    oc_spec = Faults.Spec.to_string cell.cl_spec;
    oc_fraction = r.Experiment.fraction_completed;
    oc_avg_time = r.Experiment.avg_transfer_time;
    oc_injected = Faults.Inject.injected inj;
    oc_latencies = latencies;
    oc_verdict = verdict;
    oc_report = report;
    oc_engage_s = engage;
    oc_recover_s = recover;
    oc_recovered = recovered;
    oc_flight_dumps = (match r.Experiment.flight with None -> [] | Some f -> Obs.Flight.dumps f);
  }

let run_suite ?(jobs = 1) ?obs ?flight_dir ?base cells =
  Pool.map ~jobs (run_cell ?obs ?flight_dir ?base) cells

let parse_exn spec =
  match Faults.Spec.parse spec with
  | Ok s -> s
  | Error e -> invalid_arg ("Chaos.default_suite: " ^ e)

(* The documented re-acquisition bound (EXPERIMENTS.md "Robustness"): one
   RTT (63 ms) plus request-channel queueing.  A router-state fault hits
   every sender at once, so the worst case queues the whole cohort's
   re-requests behind each other on the 1% request channel (100 kb/s at
   the 10 Mb/s bottleneck): 10 MTU-sized re-requests drain in ~1.2 s.
   1.5 s is RTT + full-cohort drain with slack; restart adds its outage,
   during which re-requests sit in access qdiscs until the links return. *)
let reacquire_bound = 1.5

let restart_outage = 0.5

let expect_recovery ~bound ~floor =
  {
    Faults.Invariants.exp_injected = true;
    exp_demotions = true;
    exp_reacquire = true;
    exp_latency_bound = bound;
    exp_min_fraction = floor;
  }

let degrade_only floor =
  {
    Faults.Invariants.relaxed with
    Faults.Invariants.exp_injected = true;
    exp_min_fraction = floor;
  }

(* Scheduled faults hit at t = 2 s: the staggered transfer clients are all
   active by t = 0.13 and even the shortest sensible workload (10 users x
   10 x 20 KB over the 10 Mb/s bottleneck) runs past 2 s, so every
   scenario fires inside the run whatever [--transfers] says. *)
let default_suite =
  [
    {
      cl_label = "loss";
      cl_spec = parse_exn "loss:bottleneck:p=0.01";
      cl_expect = degrade_only 0.5;
    };
    {
      cl_label = "burst";
      cl_spec = parse_exn "burst:bottleneck:pgb=0.02,pbg=0.3,pbad=0.5";
      cl_expect = degrade_only 0.2;
    };
    {
      cl_label = "dup-reorder";
      cl_spec = parse_exn "dup:bottleneck:p=0.01;reorder:bottleneck:p=0.02,delay=0.05";
      cl_expect = degrade_only 0.5;
    };
    {
      cl_label = "down";
      cl_spec = parse_exn "down:bottleneck:at=2,for=1";
      cl_expect = degrade_only 0.3;
    };
    {
      cl_label = "flap";
      cl_spec = parse_exn "flap:bottleneck:at=2,until=8,period=3,down=0.5";
      cl_expect = degrade_only 0.2;
    };
    {
      cl_label = "wipe";
      cl_spec = parse_exn "wipe:all:at=2,every=10";
      cl_expect = expect_recovery ~bound:reacquire_bound ~floor:0.5;
    };
    {
      cl_label = "rotate";
      cl_spec = parse_exn "rotate:all:at=2,every=10";
      (* Rotation alone barely shows: established flows validate by cached
         nonce, not by pre-capability, so only flows arriving with fresh
         capabilities notice.  Accounting invariants still apply. *)
      cl_expect = degrade_only 0.5;
    };
    {
      cl_label = "restart";
      cl_spec = parse_exn "restart:left:at=2,for=0.5";
      cl_expect =
        expect_recovery ~bound:(reacquire_bound +. restart_outage) ~floor:0.3;
    };
  ]

let all_ok outcomes = List.for_all (fun o -> o.oc_verdict.Faults.Invariants.ok) outcomes

let worst_latency o = List.fold_left Float.max 0. o.oc_latencies

let render outcomes =
  let table =
    Stats.Table.create
      ~columns:
        [
          "scenario";
          "spec";
          "fraction";
          "injected";
          "reacq";
          "worst_reacq_s";
          "engage_s";
          "recover_s";
          "verdict";
        ]
  in
  let opt = function None -> "-" | Some v -> Printf.sprintf "%.1f" v in
  (* A "+" marks a scenario whose detectors never cleared: the recover
     figure is the time to run end, a floor, not a measured recovery. *)
  let recover o =
    match o.oc_recover_s with
    | None -> "-"
    | Some v -> Printf.sprintf "%.1f%s" v (if o.oc_recovered then "" else "+")
  in
  List.iter
    (fun o ->
      Stats.Table.add_row table
        [
          o.oc_label;
          o.oc_spec;
          Printf.sprintf "%.3f" o.oc_fraction;
          string_of_int (List.fold_left (fun acc (_, n) -> acc + n) 0 o.oc_injected);
          string_of_int (List.length o.oc_latencies);
          (if o.oc_latencies = [] then "-" else Printf.sprintf "%.3f" (worst_latency o));
          opt o.oc_engage_s;
          recover o;
          (if o.oc_verdict.Faults.Invariants.ok then "ok" else "FAIL");
        ])
    outcomes;
  table
