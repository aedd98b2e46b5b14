(* The benchmark's four workloads and the scheme factory wrapper that
   measures them from outside the libraries.

   Every cell runs through [Workload.Experiment.run] or
   [Workload.Scale.run] with the scheme factory wrapped: the wrapper
   timestamps the factory call and the return of each [make_endpoint]
   (set-up ends at the last one), and keeps every qdisc [make_qdisc]
   returns so packet-hops (the sum of their [dequeued] counts) and drops
   can be read after the run.  The qdiscs are captured, not wrapped:
   pushback and NetFence inspect their own qdiscs.  In the traced repeat
   the wrapper also attaches the span recorder as the simulator's probe,
   rebuilds each router from its library's public constructor with the
   arguments [lib/workload/scheme.ml] uses and installs a timed handler,
   and wraps the endpoint closures.  No library code is changed, so the
   simulated results of a traced cell equal those of an untraced one.
   The rebuilt routers skip the scheme's router registry, which only fault
   injection, telemetry and the obs report's flow-cache rows read, and the
   benchmark reads none of them; the gate's exact event-count check
   catches a rebuilt router that drifts from the scheme's own. *)

open Workload

let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* --- Schemes ------------------------------------------------------------ *)

type scheme = {
  s_name : string;
  s_factory : Scheme.factory;
  s_router : (int * (?obs:Obs.Counters.t -> Net.node -> link_bps:float -> Net.handler)) option;
      (** span id and handler constructor for the traced repeat; [None]
          keeps the scheme's own [install_router] (pushback, whose handler
          is not exported) *)
}

let tva_router params ?obs node ~link_bps =
  Tva.Router.handler
    (Tva.Router.create ~params ?obs
       ~secret_master:("tva-secret-" ^ string_of_int (Net.node_id node))
       ~router_id:(Net.node_id node) ~sim:(Net.node_sim node) ~link_bps ())

let siff_router ?obs:_ node ~link_bps:_ =
  Siff.Router.handler
    (Siff.Router.create ~rotation_period:Siff.Router.default_rotation_period
       ~secret_master:("siff-secret-" ^ string_of_int (Net.node_id node))
       ~router_id:(Net.node_id node) ~sim:(Net.node_sim node) ())

let netfence_router ?obs:_ node ~link_bps =
  Netfence.Router.handler
    (Netfence.Router.create ~params:Netfence.Router.default_params
       ~secret_master:"netfence-as-pairwise-key" ~router_id:(Net.node_id node)
       ~sim:(Net.node_sim node) ~link_bps ())

let internet_router ?obs:_ _node ~link_bps:_ = Baseline.Internet.router_handler

(* The figure registry's schemes, TVA with the paper's simulation
   parameters. *)
let registry =
  List.map
    (fun (name, factory) ->
      let router =
        match name with
        | "tva" -> Some (Tracer.tva_router, tva_router Scenario.sim_params)
        | "siff" -> Some (Tracer.siff_router, siff_router)
        | "netfence" -> Some (Tracer.netfence_router, netfence_router)
        | "internet" -> Some (Tracer.baseline_router, internet_router)
        | _ -> None
      in
      { s_name = name; s_factory = factory; s_router = router })
    Scenario.schemes

let registry_scheme name = List.find (fun s -> s.s_name = name) registry

(* [Scale.default]'s scheme: TVA with default parameters. *)
let scale_tva =
  {
    s_name = "tva";
    s_factory = Scheme.tva ();
    s_router = Some (Tracer.tva_router, tva_router Tva.Params.default);
  }

(* --- The wrapping factory ----------------------------------------------- *)

type capture = {
  mutable t_factory : float;
  mutable t_setup_end : float;
  mutable qdiscs : Qdisc.t list;
  mutable sched : Sim.sched;
}

let fresh_capture () = { t_factory = 0.; t_setup_end = 0.; qdiscs = []; sched = Sim.Heap }

let traced_endpoint tr (ep : Scheme.endpoint) =
  let flood send ~dst ~bytes =
    Tracer.enter tr ~name:Tracer.endpoint_flood ~pkt:(-1);
    send ~dst ~bytes;
    Tracer.leave tr
  in
  {
    ep with
    Scheme.ep_send_segment =
      (fun ~dst seg ->
        Tracer.enter tr ~name:Tracer.endpoint_segment ~pkt:(-1);
        ep.Scheme.ep_send_segment ~dst seg;
        Tracer.leave tr);
    ep_set_demux =
      (fun rx ->
        ep.Scheme.ep_set_demux (fun ~src seg ->
            Tracer.enter tr ~name:Tracer.tcp_rx ~pkt:(-1);
            rx ~src seg;
            Tracer.leave tr));
    ep_send_raw = flood ep.Scheme.ep_send_raw;
    ep_send_legacy = flood ep.Scheme.ep_send_legacy;
    ep_send_request = flood ep.Scheme.ep_send_request;
    ep_flood_misbehaving = flood ep.Scheme.ep_flood_misbehaving;
  }

let wrap ?tracer (sch : scheme) cap : Scheme.factory =
 fun sim ->
  cap.t_factory <- wall ();
  cap.sched <- Sim.sched sim;
  let s = sch.s_factory sim in
  let make_qdisc ~bandwidth_bps =
    let q = s.Scheme.make_qdisc ~bandwidth_bps in
    cap.qdiscs <- q :: cap.qdiscs;
    q
  in
  let endpoint = match tracer with None -> Fun.id | Some tr -> traced_endpoint tr in
  let make_endpoint ?obs node ~role ~policy =
    let ep = endpoint (s.Scheme.make_endpoint ?obs node ~role ~policy) in
    cap.t_setup_end <- wall ();
    ep
  in
  let install_router =
    match (tracer, sch.s_router) with
    | Some tr, Some (span, build) ->
        fun ?obs node ~link_bps ->
          let h = build ?obs node ~link_bps in
          Net.set_handler node (fun node ~in_link p ->
              Tracer.enter tr ~name:span ~pkt:p.Wire.Packet.id;
              h node ~in_link p;
              Tracer.leave tr)
    | _ -> s.Scheme.install_router
  in
  (match tracer with Some tr -> Sim.set_probe sim (Some (Tracer.probe tr sim)) | None -> ());
  { s with Scheme.make_qdisc; make_endpoint; install_router }

(* --- Workloads ---------------------------------------------------------- *)

type spec =
  | Grid of {
      obs : bool;  (** run under [Experiment.obs_default] *)
      attack : Experiment.attack;
      schemes : scheme list;
      attackers : int list;
      transfers : int;
      max_time : float;
    }
  | Scale_leg of { senders : int; transfers : int; max_time : float }

type t = { name : string; why : string; spec : spec }

let names = [ "fig8_legacy"; "fig8_stats"; "request_flood"; "scale_100k" ]

let attack_bps = 1e6 (* each attacker floods at one legitimate user's rate *)

(* Simulated-time caps are shorter than the figures' (60 s for Fig. 8, 15 s
   for Fig. 9, 120 s for scale) so that one repeat takes a second or two
   and a run fits ten or more repeats, whose median is steady on a shared
   host.  A cap cuts only the cells that would flood until it; the work
   per packet-hop is the same. *)
let make ~smoke name =
  let fig8 obs =
    Grid
      {
        obs;
        attack = Experiment.Legacy_flood { rate_bps = attack_bps };
        schemes = registry;
        attackers = (if smoke then [ 1; 10 ] else [ 1; 10; 40; 100 ]);
        transfers = 10;
        max_time = (if smoke then 5. else 10.);
      }
  in
  match name with
  | "fig8_legacy" ->
      {
        name;
        why =
          "legacy flood: the event loop, link transmitter and drop-tail FIFO do the work; small \
           pending set (heap scheduler)";
        spec = fig8 false;
      }
  | "fig8_stats" ->
      {
        name;
        why =
          "the fig8_legacy grid with counters and the net-event bridge on: isolates observability \
           cost on the same datapath";
        spec = fig8 true;
      }
  | "request_flood" ->
      {
        name;
        why =
          "250 B request flood: every attack packet runs capability or marking crypto at each \
           router, so router-bound";
        spec =
          Grid
            {
              obs = false;
              attack = Experiment.Request_flood { rate_bps = attack_bps };
              schemes = List.map registry_scheme [ "tva"; "siff"; "netfence" ];
              attackers = [ (if smoke then 10 else 100) ];
              transfers = 20;
              max_time = 5.;
            };
      }
  | "scale_100k" ->
      {
        name;
        why =
          "100k independent swarm timers: scheduler (timing wheel) and memory dominate; the only \
           workload with real set-up";
        spec =
          Scale_leg
            {
              senders = (if smoke then 2_000 else 100_000);
              transfers = 50;
              max_time = (if smoke then 5. else 60.);
            };
      }
  | _ -> invalid_arg (Printf.sprintf "unknown workload %S (want %s)" name (String.concat ", " names))

(* --- Cells -------------------------------------------------------------- *)

type cell_result = {
  wall_s : float;
  setup_s : float;
  loop_s : float;
  hops : int;
  drops : int;
  enqueued : int;
  hwm : int;
  events : int;
  sim_end : float;
  sched : Sim.sched;
  row : string;  (** the simulated outcome, compared against the reference *)
}

let row_header =
  "workload\tscheme\tattackers\tfraction_completed\tavg_transfer_time\tjain\tsim_end\thops\tdrops"

type cell = {
  c_scheme : string;
  c_count : int;
  c_run : ?tracer:Tracer.t -> ?max_time:float -> unit -> cell_result;
      (** [max_time] overrides the workload's simulated-time cap; set-up
          does not depend on it, so [~max_time:0.] measures set-up alone *)
}

let cells ~seed w =
  let finish cap ~wall_s ~setup_s ~loop_s ~scheme ~count ~fraction ~avg ~jain ~sim_end ~events =
    let hops = ref 0 and drops = ref 0 and enq = ref 0 and hwm = ref 0 in
    List.iter
      (fun q ->
        let s = q.Qdisc.stats in
        hops := !hops + s.Qdisc.dequeued;
        drops := !drops + s.Qdisc.dropped;
        enq := !enq + s.Qdisc.enqueued;
        Qdisc.iter_nested q (fun n -> hwm := max !hwm n.Qdisc.stats.Qdisc.hwm_packets))
      cap.qdiscs;
    {
      wall_s;
      setup_s;
      loop_s;
      hops = !hops;
      drops = !drops;
      enqueued = !enq;
      hwm = !hwm;
      events;
      sim_end;
      sched = cap.sched;
      row =
        Printf.sprintf "%s\t%s\t%d\t%.9g\t%.9g\t%s\t%.9g\t%d\t%d" w.name scheme count fraction avg
          jain sim_end !hops !drops;
    }
  in
  match w.spec with
  | Grid g ->
      List.concat_map
        (fun sch ->
          List.map
            (fun n ->
              let c_run ?tracer ?(max_time = g.max_time) () =
                let cap = fresh_capture () in
                let cfg =
                  {
                    Experiment.default with
                    Experiment.scheme = wrap ?tracer sch cap;
                    n_attackers = n;
                    attack = g.attack;
                    transfers_per_user = g.transfers;
                    max_time;
                    seed;
                  }
                in
                let t0 = wall () in
                let r =
                  if g.obs then Experiment.run ~obs:Experiment.obs_default cfg else Experiment.run cfg
                in
                let t1 = wall () in
                (* With obs on, Experiment.run times its own loop and then
                   builds the obs report, which must not count as loop.
                   With obs off, the time from the last endpoint to the
                   end of run is the loop plus starting the attackers and
                   merging per-user metrics, which scale with hosts, not
                   packets. *)
                let loop_s =
                  match r.Experiment.obs with
                  | Some o -> o.Obs.Report.wall_s
                  | None -> t1 -. cap.t_setup_end
                in
                finish cap ~wall_s:(t1 -. t0)
                  ~setup_s:(cap.t_setup_end -. cap.t_factory)
                  ~loop_s
                  ~scheme:r.Experiment.scheme_name ~count:n ~fraction:r.Experiment.fraction_completed
                  ~avg:r.Experiment.avg_transfer_time
                  ~jain:(Printf.sprintf "%.9g" r.Experiment.jain_index)
                  ~sim_end:r.Experiment.sim_end ~events:r.Experiment.events
              in
              { c_scheme = sch.s_name; c_count = n; c_run })
            g.attackers)
        g.schemes
  | Scale_leg s ->
      let c_run ?tracer ?(max_time = s.max_time) () =
        let cap = fresh_capture () in
        let cfg =
          {
            Scale.default with
            Scale.sc_scheme = wrap ?tracer scale_tva cap;
            sc_senders = s.senders;
            sc_aggregates = 16;
            sc_swarm_mode = Swarm.Independent;
            sc_transfers_per_user = s.transfers;
            sc_max_time = max_time;
            sc_seed = seed;
          }
        in
        let t0 = wall () in
        let r = Scale.run cfg in
        let wall_s = wall () -. t0 in
        (* Scale.run times its own loop; everything else is set-up. *)
        finish cap ~wall_s ~setup_s:(wall_s -. r.Scale.sr_wall_s) ~loop_s:r.Scale.sr_wall_s
          ~scheme:r.Scale.sr_scheme ~count:s.senders
          ~fraction:r.Scale.sr_fraction_completed ~avg:r.Scale.sr_avg_transfer_time ~jain:"-"
          ~sim_end:r.Scale.sr_sim_end ~events:r.Scale.sr_events
      in
      [ { c_scheme = "tva"; c_count = s.senders; c_run } ]
