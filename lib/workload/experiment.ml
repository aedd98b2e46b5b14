type attack =
  | No_attack
  | Legacy_flood of { rate_bps : float }
  | Request_flood of { rate_bps : float }
  | Authorized_flood of { rate_bps : float }
  | Imprecise_flood of { rate_bps : float; groups : int; group_interval : float; start_at : float }

type config = {
  scheme : Scheme.factory;
  n_users : int;
  n_attackers : int;
  attack : attack;
  transfers_per_user : int;
  transfer_bytes : int;
  max_time : float;
  seed : int;
  bottleneck_bps : float;
  access_bps : float;
}

let default =
  {
    scheme = Scheme.tva ();
    n_users = 10;
    n_attackers = 0;
    attack = No_attack;
    transfers_per_user = 50;
    transfer_bytes = 20 * 1024;
    max_time = 120.;
    seed = 1;
    bottleneck_bps = 10e6;
    access_bps = 10e6;
  }

type result = {
  scheme_name : string;
  fraction_completed : float;
  avg_transfer_time : float;
  metrics : Metrics.t;
  user_goodputs : float list;
  jain_index : float;
  sim_end : float;
  events : int;
  obs : Obs.Report.t option;
  flight : Obs.Flight.t option;
}

(* What to observe, as pure data: a config (not live state) crosses Pool
   worker domains safely, each run building its own registry/trace/profiler
   from it. *)
type obs_config = {
  obs_trace_capacity : int; (* 0 = no trace ring *)
  obs_trace_sample : int; (* keep 1 record in k *)
  obs_profile : bool; (* event-loop wall-time profiler (Unix clock) *)
  obs_gauge_period : float; (* sim-seconds between queue-depth samples; 0 = off *)
  obs_telemetry_interval : float; (* sim-seconds between interval windows; 0 = off *)
  obs_flight_windows : int; (* telemetry windows frozen into a flight dump *)
  obs_flight_dir : string option; (* where dumps land; None = no flight recorder *)
  obs_flight_label : string; (* dump file stem, e.g. the chaos scenario label *)
}

let obs_default =
  {
    obs_trace_capacity = 0;
    obs_trace_sample = 1;
    obs_profile = false;
    obs_gauge_period = 0.;
    obs_telemetry_interval = 0.;
    obs_flight_windows = 64;
    obs_flight_dir = None;
    obs_flight_label = "run";
  }

type obs_state = {
  st_registry : Obs.Counters.registry;
  st_counters_for : Net.node -> Obs.Counters.t;
  st_trace : Obs.Trace.t;
  st_profile : Obs.Profile.t option;
}

(* Everything a fault-injection hook needs, handed over after the topology,
   routers, endpoints and attack are wired but before the clock starts.
   The rng is split off the simulation stream only when a hook is present,
   so unfaulted runs consume exactly the draws they always did. *)
type fault_env = {
  fe_sim : Sim.t;
  fe_rng : Rng.t;
  fe_links : Faults.Inject.link_site list;
  fe_routers : Faults.Inject.router_site list;
  fe_users : Scheme.endpoint list;
  fe_destination : Scheme.endpoint;
  fe_obs : Obs.Counters.t;
}

let attacker_oracle a = Wire.Addr.to_int a lsr 24 = 0x0b

let destination_policy cfg =
  match cfg.attack with
  | Request_flood _ ->
      (* Sec. 5.2 assumes the destination can tell attacker requests from
         legitimate ones: refuse attackers outright. *)
      Tva.Policy.make
        ~decide:(fun ~now:_ ~src ~renewal:_ ->
          if attacker_oracle src then Tva.Policy.Refused
          else
            Tva.Policy.Granted
              {
                n_kb = Tva.Params.default.Tva.Params.default_n_kb;
                t_sec = Tva.Params.default.Tva.Params.default_t_sec;
              })
        ()
  | No_attack | Legacy_flood _ | Authorized_flood _ | Imprecise_flood _ ->
      (* Sec. 5.4's public-server policy: grant everyone once, stop
         renewing recognized misbehavers. *)
      Tva.Policy.server ~suspicious:attacker_oracle ()

let install_attack cfg sim (topo : Topology.t) attacker_endpoints =
  let destination = Topology.destination_addr in
  match cfg.attack with
  | No_attack -> ()
  | Legacy_flood { rate_bps } ->
      List.iter
        (fun ep ->
          Agents.Flooder.start ~sim ~endpoint:ep ~dst:destination ~rate_bps
            ~mode:Agents.Flooder.Legacy ())
        attacker_endpoints
  | Request_flood { rate_bps } ->
      (* The paper keeps request packets small; 250 bytes is its example
         request size. *)
      List.iter
        (fun ep ->
          Agents.Flooder.start ~sim ~endpoint:ep ~dst:destination ~rate_bps ~pkt_bytes:250
            ~mode:Agents.Flooder.Request ())
        attacker_endpoints
  | Authorized_flood { rate_bps } ->
      let colluder =
        match topo.Topology.colluder with
        | Some c -> c
        | None -> invalid_arg "Experiment: authorized flood needs a colluder"
      in
      let dst =
        match Net.node_addr colluder with Some a -> a | None -> assert false
      in
      List.iter
        (fun ep ->
          Agents.Flooder.start ~sim ~endpoint:ep ~dst ~rate_bps ~mode:Agents.Flooder.Authorized
            ())
        attacker_endpoints
  | Imprecise_flood { rate_bps; groups; group_interval; start_at } ->
      let n = List.length attacker_endpoints in
      let per_group = max 1 ((n + groups - 1) / groups) in
      List.iteri
        (fun i ep ->
          let group = i / per_group in
          Agents.Flooder.start ~sim ~endpoint:ep ~dst:destination ~rate_bps
            ~start_at:(start_at +. (float_of_int group *. group_interval))
            ~mode:Agents.Flooder.Misbehaving ())
        attacker_endpoints

let run ?obs ?faults cfg =
  let sim = Sim.create ~seed:cfg.seed () in
  let scheme = cfg.scheme sim in
  let with_colluder = match cfg.attack with Authorized_flood _ -> true | _ -> false in
  let topo =
    Topology.dumbbell ~bottleneck_bps:cfg.bottleneck_bps ~access_bps:cfg.access_bps
      ~n_users:cfg.n_users ~with_colluder ~n_attackers:cfg.n_attackers
      ~make_qdisc:(fun ~bandwidth_bps -> scheme.Scheme.make_qdisc ~bandwidth_bps)
      sim
  in
  (* Observability, when asked for: a counter registry keyed by node name,
     the net-event bridge, and optionally a trace ring, an event-loop
     profiler and a queue-depth gauge on the bottleneck.  With [?obs]
     absent nothing is installed and the run is byte-identical to an
     unobserved one. *)
  let obs_state =
    match obs with
    | None -> None
    | Some oc ->
        let reg = Obs.Counters.registry () in
        let counters_for node =
          let name = Net.node_name node in
          match Obs.Counters.find reg ~name with
          | Some c -> c
          | None -> Obs.Counters.register reg ~name
        in
        let trace =
          if oc.obs_trace_capacity > 0 then
            Obs.Trace.create ~capacity:oc.obs_trace_capacity ~sample:oc.obs_trace_sample ()
          else Obs.Trace.nop
        in
        Obs.Bridge.install ~trace ~counters_for topo.Topology.net;
        let profile =
          if oc.obs_profile || oc.obs_gauge_period > 0. then
            Some (Obs.Profile.create ~clock:Unix.gettimeofday ())
          else None
        in
        (match profile with
        | Some p when oc.obs_profile -> Obs.Profile.attach p sim
        | Some _ | None -> ());
        (match profile with
        | Some p when oc.obs_gauge_period > 0. ->
            (* The congested direction's queue is the interesting one; its
               depth under each attack is the dashboard's headline gauge. *)
            let q = Net.link_qdisc topo.Topology.bottleneck in
            let g =
              Obs.Profile.gauge p ~name:"bottleneck-queue-depth" ~lo:1. ~hi:4096. ~bins:24
            in
            Obs.Profile.sample_every p sim ~period:oc.obs_gauge_period
              [ (g, fun () -> float_of_int (Qdisc.packet_count q)) ]
        | Some _ | None -> ());
        Some { st_registry = reg; st_counters_for = counters_for; st_trace = trace; st_profile = profile }
  in
  (* Node-id -> name, for the trace dump (flight recorder and report). *)
  let node_name =
    match obs_state with
    | None -> string_of_int
    | Some _ ->
        let names = Hashtbl.create 64 in
        List.iter
          (fun node -> Hashtbl.replace names (Net.node_id node) (Net.node_name node))
          (Net.nodes topo.Topology.net);
        fun id ->
          (match Hashtbl.find_opt names id with Some n -> n | None -> string_of_int id)
  in
  (match obs_state with
  | None ->
      scheme.Scheme.install_router topo.Topology.left ~link_bps:cfg.bottleneck_bps;
      scheme.Scheme.install_router topo.Topology.right ~link_bps:cfg.bottleneck_bps
  | Some st ->
      scheme.Scheme.install_router
        ~obs:(st.st_counters_for topo.Topology.left)
        topo.Topology.left ~link_bps:cfg.bottleneck_bps;
      scheme.Scheme.install_router
        ~obs:(st.st_counters_for topo.Topology.right)
        topo.Topology.right ~link_bps:cfg.bottleneck_bps);
  let ep_obs node =
    match obs_state with None -> None | Some st -> Some (st.st_counters_for node)
  in
  let dest_endpoint =
    scheme.Scheme.make_endpoint
      ?obs:(ep_obs topo.Topology.destination)
      topo.Topology.destination ~role:Scheme.Destination ~policy:(destination_policy cfg)
  in
  let _server = Agents.Transfer_server.create ~sim ~endpoint:dest_endpoint () in
  (match topo.Topology.colluder with
  | Some c ->
      let colluder_endpoint =
        scheme.Scheme.make_endpoint ?obs:(ep_obs c) c ~role:Scheme.Colluder
          ~policy:(Tva.Policy.allow_all ~n_kb:1023 ~t_sec:63 ())
      in
      ignore colluder_endpoint
  | None -> ());
  let metrics = Metrics.create () in
  let users_left = ref cfg.n_users in
  let per_user =
    Array.to_list
      (Array.mapi
         (fun i user ->
           let endpoint =
             scheme.Scheme.make_endpoint ?obs:(ep_obs user) user ~role:Scheme.User
               ~policy:(Tva.Policy.client ())
           in
           let m = Metrics.create () in
           let _client =
             Agents.Transfer_client.create ~sim ~endpoint ~server:Topology.destination_addr
               ~transfer_bytes:cfg.transfer_bytes ~max_transfers:cfg.transfers_per_user
               ~start_at:(0.01 +. (0.011 *. float_of_int i))
               ~conn_base:((i + 1) * 1_000_000)
               ~metrics:m
               ~on_all_done:(fun () ->
                 decr users_left;
                 if !users_left = 0 then Sim.stop sim)
               ()
           in
           (endpoint, m))
         topo.Topology.users)
  in
  let user_endpoints = List.map fst per_user in
  let per_user_metrics = List.map snd per_user in
  let attacker_endpoints =
    Array.to_list
      (Array.map
         (fun a ->
           scheme.Scheme.make_endpoint ?obs:(ep_obs a) a ~role:Scheme.Attacker
             ~policy:(Tva.Policy.client ()))
         topo.Topology.attackers)
  in
  install_attack cfg sim topo attacker_endpoints;
  (match faults with
  | None -> ()
  | Some hook ->
      let fe_obs =
        match obs_state with
        | None -> Obs.Counters.nop
        | Some st -> (
            match Obs.Counters.find st.st_registry ~name:"faults" with
            | Some c -> c
            | None -> Obs.Counters.register st.st_registry ~name:"faults")
      in
      hook
        {
          fe_sim = sim;
          fe_rng = Rng.split (Sim.rng sim);
          fe_links = Faults.Inject.link_sites topo;
          fe_routers = scheme.Scheme.fault_targets ();
          fe_users = user_endpoints;
          fe_destination = dest_endpoint;
          fe_obs;
        });
  (* Telemetry: interval windows over the hot counters and queues, online
     incident detection, and (optionally) a flight recorder.  Set up last so
     the channels can watch the "faults" counter the hook just registered.
     The tick chain rides on auxiliary (negative-sequence) events, so a
     telemetry-on run is bit-identical to a telemetry-off one. *)
  let telemetry =
    match (obs, obs_state) with
    | Some oc, Some st when oc.obs_telemetry_interval > 0. ->
        let ts = Obs.Timeseries.create ~interval:oc.obs_telemetry_interval () in
        let bq = Net.link_qdisc topo.Topology.bottleneck in
        Obs.Timeseries.add ts ~name:"demoted" ~mode:Obs.Timeseries.Cumulative
          (Obs.Timeseries.Cells
             ( [|
                 st.st_counters_for topo.Topology.left;
                 st.st_counters_for topo.Topology.right;
               |],
               Obs.Event.to_int Obs.Event.Demoted ));
        (* The congested direction's request channel, found by name inside
           the composite link scheduler (TVA only; absent elsewhere). *)
        let request_limiter = ref None in
        Qdisc.iter_nested bq (fun q ->
            if q.Qdisc.name = "request-limiter" && !request_limiter = None then
              request_limiter := Some q);
        (match !request_limiter with
        | Some q ->
            Obs.Timeseries.add ts ~name:"request_bytes" ~mode:Obs.Timeseries.Cumulative
              (Obs.Timeseries.Int_fn (fun () -> q.Qdisc.stats.Qdisc.bytes_dequeued))
        | None -> ());
        (* Resolve the nested stats records once; the tick probe is then a
           pure int fold with no traversal. *)
        let drop_stats =
          let acc = ref [] in
          Qdisc.iter_nested bq (fun q -> acc := q.Qdisc.stats :: !acc);
          Array.of_list !acc
        in
        Obs.Timeseries.add ts ~name:"drops" ~mode:Obs.Timeseries.Cumulative
          (Obs.Timeseries.Int_fn
             (fun () ->
               let n = ref 0 in
               Array.iter (fun (s : Qdisc.stats) -> n := !n + s.Qdisc.dropped) drop_stats;
               !n));
        Obs.Timeseries.add ts ~name:"queue_depth" ~mode:Obs.Timeseries.Level
          (Obs.Timeseries.Int_fn (fun () -> Qdisc.packet_count bq));
        Obs.Timeseries.add ts ~name:"flow_cache" ~mode:Obs.Timeseries.Level
          (Obs.Timeseries.Int_fn scheme.Scheme.cache_occupancy);
        (match Obs.Counters.find st.st_registry ~name:"faults" with
        | Some c ->
            Obs.Timeseries.add ts ~name:"faults" ~mode:Obs.Timeseries.Cumulative
              (Obs.Timeseries.Cell (c, Obs.Event.to_int Obs.Event.Fault_injected))
        | None -> ());
        Obs.Timeseries.add ts ~name:"events" ~mode:Obs.Timeseries.Cumulative
          (Obs.Timeseries.Int_fn (fun () -> Sim.events_processed sim));
        let rules =
          let r = ref [] in
          r := Obs.Detect.rule ~name:"demotion-storm" ~chan:"demoted" ~on:50. ~off:5. () :: !r;
          (match !request_limiter with
          | Some { Qdisc.kind = Qdisc.Token_bucket tb; _ } ->
              (* Saturation relative to the channel's configured rate. *)
              let cap = tb.Qdisc.tb_rate_bytes in
              r :=
                Obs.Detect.rule ~name:"request-saturation" ~chan:"request_bytes"
                  ~on:(0.9 *. cap) ~off:(0.3 *. cap) ()
                :: !r
          | Some _ | None -> ());
          r :=
            Obs.Detect.rule ~signal:`Value ~up:2 ~down:3 ~name:"queue-buildup"
              ~chan:"queue_depth" ~on:64. ~off:8. ()
            :: !r;
          if Obs.Timeseries.chan_index ts "faults" <> None then
            r :=
              Obs.Detect.rule ~down:3 ~name:"fault-activity" ~chan:"faults" ~on:0.5 ~off:0.05 ()
              :: !r;
          List.rev !r
        in
        let det = Obs.Detect.create ~rules ts in
        let flight =
          match oc.obs_flight_dir with
          | None -> None
          | Some dir ->
              let f =
                Obs.Flight.create ~windows:oc.obs_flight_windows ~dir
                  ~label:oc.obs_flight_label ()
              in
              Obs.Flight.set_timeseries f ts;
              Obs.Flight.set_trace f st.st_trace;
              Obs.Flight.set_detect f det;
              Obs.Detect.on_onset det (fun inc ->
                  ignore
                    (Obs.Flight.trigger ~node_name f
                       ~reason:("incident:" ^ inc.Obs.Detect.in_rule)
                       ~time:inc.Obs.Detect.in_onset));
              Some f
        in
        Some (ts, det, flight)
    | _ -> None
  in
  (match telemetry with
  | None -> ()
  | Some (ts, det, _) ->
      Obs.Timeseries.attach ts sim ~until:cfg.max_time ~on_tick:(fun () -> Obs.Detect.step det));
  let loop_t0 = Unix.gettimeofday () in
  Sim.run ~until:cfg.max_time sim;
  let loop_wall = Unix.gettimeofday () -. loop_t0 in
  List.iter (Metrics.merge_into metrics) per_user_metrics;
  let obs_report =
    match obs_state with
    | None -> None
    | Some st ->
        (match st.st_profile with Some _ -> Obs.Profile.detach sim | None -> ());
        let series, series_interval, series_json, incidents =
          match telemetry with
          | None -> ([], 0., None, [])
          | Some (ts, det, _) ->
              Obs.Detect.finish det ~time:(Sim.now sim);
              ( Obs.Report.series_rows ts,
                Obs.Timeseries.interval ts,
                Some (Obs.Timeseries.to_json ts),
                Obs.Report.incident_rows det )
        in
        Some
          {
            Obs.Report.counters = Obs.Counters.snapshot_all st.st_registry;
            links = Obs.Report.link_rows_of_net topo.Topology.net;
            caches = scheme.Scheme.report_caches ();
            profile =
              (match st.st_profile with None -> [] | Some p -> Obs.Report.profile_rows p);
            gauges = (match st.st_profile with None -> [] | Some p -> Obs.Report.gauge_rows p);
            events = Sim.events_processed sim;
            wall_s = loop_wall;
            trace_jsonl = Obs.Report.trace_jsonl ~node_name st.st_trace;
            series;
            series_interval;
            series_json;
            incidents;
          }
  in
  (* Per-sender goodput, user order: payload bytes each user completed
     over the run, as bits/s of simulated time.  Every user's metrics
     object is private to it, so this is exact, not attributed. *)
  let horizon = Float.max (Sim.now sim) 1e-9 in
  let user_goodputs =
    List.map
      (fun m -> float_of_int (Metrics.bytes_completed m) *. 8. /. horizon)
      per_user_metrics
  in
  {
    scheme_name = scheme.Scheme.name;
    fraction_completed = Metrics.fraction_completed metrics;
    avg_transfer_time = Metrics.avg_transfer_time metrics;
    metrics;
    user_goodputs;
    jain_index = Metrics.jain_index user_goodputs;
    sim_end = Sim.now sim;
    events = Sim.events_processed sim;
    obs = obs_report;
    flight = (match telemetry with Some (_, _, f) -> f | None -> None);
  }
