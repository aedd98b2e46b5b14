type attack =
  | No_attack
  | Legacy_flood of { rate_bps : float }
  | Request_flood of { rate_bps : float }
  | Authorized_flood of { rate_bps : float }
  | Imprecise_flood of { rate_bps : float; groups : int; group_interval : float; start_at : float }
  | Custom of (Sim.t -> Scheme.t -> Topology.t -> unit)

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
  user_start : float;
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
    user_start = 0.01;
  }

type result = {
  scheme_name : string;
  fraction_completed : float;
  avg_transfer_time : float;
  metrics : Metrics.t;
  user_metrics : Metrics.t list;
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
  obs_telemetry_interval : float; (* sim-seconds between interval windows; 0 = off *)
  obs_flight_dir : string option; (* where dumps land; None = no flight recorder *)
  obs_flight_label : string; (* dump file stem, e.g. the chaos scenario label *)
}

let obs_default =
  {
    obs_trace_capacity = 0;
    obs_trace_sample = 1;
    obs_profile = false;
    obs_telemetry_interval = 0.;
    obs_flight_dir = None;
    obs_flight_label = "run";
  }

(* The observability set-up and report assembly that [run] and [Scale.run]
   share.  Nothing here schedules a normal event or draws randomness, so an
   observed run keeps the simulated outcome of an unobserved one. *)
module Harness = struct
  type t = {
    config : obs_config;
    sim : Sim.t;
    net : Net.t;
    scheme : Scheme.t;
    registry : Obs.Counters.registry;
    trace : Obs.Trace.t;
    profile : Obs.Profile.t option;
    mutable by_id : Obs.Counters.t option array; (* [counters_for] memo by [Net.node_id] *)
  }

  type channel = string * Obs.Timeseries.mode * Obs.Timeseries.source

  (* Find-or-register by name: the registry lists rows in first-touch
     order, which is the order every counter dump prints them in. *)
  let counters t name =
    match Obs.Counters.find t.registry ~name with
    | Some c -> c
    | None -> Obs.Counters.register t.registry ~name

  (* The bridge calls this on every forwarding event, so the name lookup
     runs once per node, on its first touch.  A node added after [setup]
     (every node a [Custom] attack makes) grows the memo, which node ids
     fill densely. *)
  let counters_for t node =
    let id = Net.node_id node in
    if id >= Array.length t.by_id then begin
      let by_id = Array.make (max (id + 1) (2 * Array.length t.by_id)) None in
      Array.blit t.by_id 0 by_id 0 (Array.length t.by_id);
      t.by_id <- by_id
    end;
    match t.by_id.(id) with
    | Some c -> c
    | None ->
        let c = counters t (Net.node_name node) in
        t.by_id.(id) <- Some c;
        c

  (* Node names by [Net.node_id] for a trace or flight dump, read from
     [Net.nodes] when the dump asks, so a node added after [setup] is named
     too.  Apply it once per dump. *)
  let node_name t =
    let nodes = Net.nodes t.net in
    let names = Array.make (List.length nodes) "" in
    List.iter (fun node -> names.(Net.node_id node) <- Net.node_name node) nodes;
    fun id -> if id >= 0 && id < Array.length names then names.(id) else string_of_int id

  let setup config ~sim ~net ~scheme =
    let t =
      {
        config;
        sim;
        net;
        scheme;
        registry = Obs.Counters.registry ();
        trace =
          (if config.obs_trace_capacity > 0 then
             Obs.Trace.create ~capacity:config.obs_trace_capacity ~sample:config.obs_trace_sample ()
           else Obs.Trace.nop);
        profile =
          (if config.obs_profile then Some (Obs.Profile.create ~clock:Unix.gettimeofday ())
           else None);
        by_id = [||];
      }
    in
    Obs.Bridge.install ~trace:t.trace ~counters_for:(counters_for t) net;
    Option.iter (fun p -> Obs.Profile.attach p sim) t.profile;
    t

  (* The channels both drivers record. *)
  let demoted t routers : channel =
    ( "demoted",
      Obs.Timeseries.Cumulative,
      Obs.Timeseries.Cells
        (Array.of_list (List.map (counters_for t) routers), Obs.Event.to_int Obs.Event.Demoted) )

  (* Drops summed over every qdisc nested in [qdiscs]; the stats records
     are resolved once, so the tick probe is a pure int fold. *)
  let drops qdiscs : channel =
    let stats = ref [] in
    List.iter (fun q -> Qdisc.iter_nested q (fun q -> stats := q.Qdisc.stats :: !stats)) qdiscs;
    let stats = Array.of_list !stats in
    ( "drops",
      Obs.Timeseries.Cumulative,
      Obs.Timeseries.Int_fn
        (fun () ->
          let n = ref 0 in
          Array.iter (fun (s : Qdisc.stats) -> n := !n + s.Qdisc.dropped) stats;
          !n) )

  let flow_cache t : channel =
    ("flow_cache", Obs.Timeseries.Level, Obs.Timeseries.Int_fn t.scheme.Scheme.cache_occupancy)

  let events t : channel =
    ( "events",
      Obs.Timeseries.Cumulative,
      Obs.Timeseries.Int_fn (fun () -> Sim.events_processed t.sim) )

  (* [None] unless the config asks for telemetry; [channels] is only forced
     when it does. *)
  let telemetry t channels =
    if t.config.obs_telemetry_interval <= 0. then None
    else begin
      let ts = Obs.Timeseries.create ~interval:t.config.obs_telemetry_interval () in
      List.iter
        (fun (name, mode, source) -> Obs.Timeseries.add ts ~name ~mode source)
        (channels ());
      Some ts
    end

  (* Call after [Sim.run]; [wall_s] is the loop's own wall time. *)
  let report ?series ?detect t ~wall_s =
    Option.iter (fun _ -> Obs.Profile.detach t.sim) t.profile;
    let incidents =
      match detect with
      | None -> []
      | Some det ->
          Obs.Detect.finish det ~time:(Sim.now t.sim);
          Obs.Report.incident_rows det
    in
    {
      Obs.Report.counters = Obs.Counters.snapshot_all t.registry;
      links = Obs.Report.link_rows_of_net t.net;
      caches = t.scheme.Scheme.report_caches ();
      profile = (match t.profile with None -> [] | Some p -> Obs.Report.profile_rows p);
      events = Sim.events_processed t.sim;
      wall_s;
      trace_jsonl = Obs.Report.trace_jsonl ~node_name:(node_name t) t.trace;
      series = (match series with None -> [] | Some ts -> Obs.Report.series_rows ts);
      series_interval = (match series with None -> 0. | Some ts -> Obs.Timeseries.interval ts);
      series_json = Option.map (fun ts -> Obs.Timeseries.to_json ts) series;
      incidents;
    }
end

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
  | No_attack | Legacy_flood _ | Authorized_flood _ | Imprecise_flood _ | Custom _ ->
      (* Sec. 5.4's public-server policy: grant everyone once, stop
         renewing recognized misbehavers. *)
      Tva.Policy.server ~suspicious:attacker_oracle ()

let install_attack cfg sim scheme (topo : Topology.t) attacker_endpoints =
  let destination = Topology.destination_addr in
  match cfg.attack with
  | No_attack -> ()
  | Custom attach -> attach sim scheme topo
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
  let with_colluder = match cfg.attack with Authorized_flood _ | Custom _ -> true | _ -> false in
  let topo =
    Topology.dumbbell ~bottleneck_bps:cfg.bottleneck_bps ~access_bps:cfg.access_bps
      ~n_users:cfg.n_users ~with_colluder ~n_attackers:cfg.n_attackers
      ~make_qdisc:(fun ~bandwidth_bps -> scheme.Scheme.make_qdisc ~bandwidth_bps)
      sim
  in
  (* With [?obs] absent nothing is installed and the run is byte-identical
     to an unobserved one. *)
  let harness = Option.map (fun oc -> Harness.setup oc ~sim ~net:topo.Topology.net ~scheme) obs in
  let ep_obs node = Option.map (fun h -> Harness.counters_for h node) harness in
  scheme.Scheme.install_router ?obs:(ep_obs topo.Topology.left) topo.Topology.left
    ~link_bps:cfg.bottleneck_bps;
  scheme.Scheme.install_router ?obs:(ep_obs topo.Topology.right) topo.Topology.right
    ~link_bps:cfg.bottleneck_bps;
  let dest_endpoint =
    scheme.Scheme.make_endpoint
      ?obs:(ep_obs topo.Topology.destination)
      topo.Topology.destination ~role:Scheme.Destination ~policy:(destination_policy cfg)
  in
  let _server = Agents.Transfer_server.create ~sim ~endpoint:dest_endpoint () in
  (* A [Custom] attack makes its own colluder endpoint, if it wants one. *)
  (match (cfg.attack, topo.Topology.colluder) with
  | Authorized_flood _, Some c ->
      ignore
        (scheme.Scheme.make_endpoint ?obs:(ep_obs c) c ~role:Scheme.Colluder
           ~policy:(Tva.Policy.allow_all ~n_kb:1023 ~t_sec:63 ()))
  | _ -> ());
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
               ~start_at:(cfg.user_start +. (0.011 *. float_of_int i))
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
  install_attack cfg sim scheme topo attacker_endpoints;
  (match faults with
  | None -> ()
  | Some hook ->
      hook
        {
          fe_sim = sim;
          fe_rng = Rng.split (Sim.rng sim);
          fe_links = Faults.Inject.link_sites topo;
          fe_routers = scheme.Scheme.fault_targets ();
          fe_users = user_endpoints;
          fe_destination = dest_endpoint;
          fe_obs =
            (match harness with None -> Obs.Counters.nop | Some h -> Harness.counters h "faults");
        });
  (* Telemetry: interval windows over the hot counters and queues, online
     incident detection, and (optionally) a flight recorder.  Set up last so
     the channels can watch the "faults" counter the hook just registered.
     The tick chain rides on auxiliary (negative-sequence) events, so a
     telemetry-on run is bit-identical to a telemetry-off one. *)
  let telemetry =
    match harness with
    | None -> None
    | Some h -> (
        let bq = Net.link_qdisc topo.Topology.bottleneck in
        (* The congested direction's request channel, found by name inside
           the composite link scheduler (TVA only; absent elsewhere). *)
        let limiter = ref None in
        Qdisc.iter_nested bq (fun q ->
            if q.Qdisc.name = "request-limiter" && !limiter = None then limiter := Some q);
        let limiter = !limiter in
        let series =
          Harness.telemetry h (fun () ->
              List.concat
                [
                  [ Harness.demoted h [ topo.Topology.left; topo.Topology.right ] ];
                  (match limiter with
                  | Some q ->
                      [
                        ( "request_bytes",
                          Obs.Timeseries.Cumulative,
                          Obs.Timeseries.Int_fn (fun () -> q.Qdisc.stats.Qdisc.bytes_dequeued) );
                      ]
                  | None -> []);
                  [
                    Harness.drops [ bq ];
                    ( "queue_depth",
                      Obs.Timeseries.Level,
                      Obs.Timeseries.Int_fn (fun () -> Qdisc.packet_count bq) );
                    Harness.flow_cache h;
                  ];
                  (match faults with
                  | Some _ ->
                      [
                        ( "faults",
                          Obs.Timeseries.Cumulative,
                          Obs.Timeseries.Cell
                            ( Harness.counters h "faults",
                              Obs.Event.to_int Obs.Event.Fault_injected ) );
                      ]
                  | None -> []);
                  [ Harness.events h ];
                ])
        in
        match series with
        | None -> None
        | Some ts ->
            let oc = h.Harness.config in
            let rules =
              List.concat
                [
                  [ Obs.Detect.rule ~name:"demotion-storm" ~chan:"demoted" ~on:50. ~off:5. () ];
                  (match limiter with
                  | Some { Qdisc.kind = Qdisc.Token_bucket tb; _ } ->
                      (* Saturation relative to the channel's configured rate. *)
                      let cap = Policer.rate_bps tb.Qdisc.tb_meter /. 8. in
                      [
                        Obs.Detect.rule ~name:"request-saturation" ~chan:"request_bytes"
                          ~on:(0.9 *. cap) ~off:(0.3 *. cap) ();
                      ]
                  | Some _ | None -> []);
                  [
                    Obs.Detect.rule ~signal:`Value ~up:2 ~down:3 ~name:"queue-buildup"
                      ~chan:"queue_depth" ~on:64. ~off:8. ();
                  ];
                  (if faults <> None then
                     [
                       Obs.Detect.rule ~down:3 ~name:"fault-activity" ~chan:"faults" ~on:0.5
                         ~off:0.05 ();
                     ]
                   else []);
                ]
            in
            let det = Obs.Detect.create ~rules ts in
            let flight =
              Option.map
                (fun dir ->
                  let f = Obs.Flight.create ~dir ~label:oc.obs_flight_label () in
                  Obs.Flight.set_timeseries f ts;
                  Obs.Flight.set_trace f h.Harness.trace;
                  Obs.Flight.set_detect f det;
                  Obs.Detect.on_onset det (fun inc ->
                      ignore
                        (Obs.Flight.trigger ~node_name:(Harness.node_name h) f
                           ~reason:("incident:" ^ inc.Obs.Detect.in_rule)
                           ~time:inc.Obs.Detect.in_onset));
                  f)
                oc.obs_flight_dir
            in
            Obs.Timeseries.attach ts sim ~until:cfg.max_time ~on_tick:(fun () ->
                Obs.Detect.step det);
            Some (ts, det, flight))
  in
  let loop_t0 = Unix.gettimeofday () in
  Sim.run ~until:cfg.max_time sim;
  let loop_wall = Unix.gettimeofday () -. loop_t0 in
  List.iter (Metrics.merge_into metrics) per_user_metrics;
  let obs_report =
    Option.map
      (fun h ->
        match telemetry with
        | None -> Harness.report h ~wall_s:loop_wall
        | Some (ts, det, _) -> Harness.report h ~series:ts ~detect:det ~wall_s:loop_wall)
      harness
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
    user_metrics = per_user_metrics;
    user_goodputs;
    jain_index = Metrics.jain_index user_goodputs;
    sim_end = Sim.now sim;
    events = Sim.events_processed sim;
    obs = obs_report;
    flight = (match telemetry with Some (_, _, f) -> f | None -> None);
  }
