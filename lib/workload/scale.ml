(* The million-sender scale experiment (DESIGN.md section 13): legitimate
   users run real transfer clients while the attack side is folded into
   [Swarm] aggregates — per-member state in unboxed arrays, packets
   injected with per-member spoofed source addresses from a handful of
   ingress nodes.  Senders scale to 10^5..10^6 while the node/link graph
   stays structural (tens of routers), which is what lets one process
   sweep botnet sizes three orders of magnitude past the dumbbell's
   node-per-attacker design. *)

type topology_kind =
  | Scale_dumbbell
  | Fan_in of { depth : int; fanout : int }
  | Parking_lot of { segments : int }
  | Power_law of { routers : int; edges_per_node : int }

let topology_kind_to_string = function
  | Scale_dumbbell -> "dumbbell"
  | Fan_in { depth; fanout } -> Printf.sprintf "fanin-d%d-f%d" depth fanout
  | Parking_lot { segments } -> Printf.sprintf "parking-lot-%d" segments
  | Power_law { routers; edges_per_node } -> Printf.sprintf "power-law-%d-m%d" routers edges_per_node

let topology_kind_of_string s =
  match String.split_on_char ':' s with
  | [ "dumbbell" ] -> Ok Scale_dumbbell
  | [ "fanin" ] -> Ok (Fan_in { depth = 3; fanout = 4 })
  | [ "fanin"; d; f ] -> (
      match (int_of_string_opt d, int_of_string_opt f) with
      | Some depth, Some fanout -> Ok (Fan_in { depth; fanout })
      | _ -> Error "fanin wants fanin:<depth>:<fanout>")
  | [ "parking-lot" ] -> Ok (Parking_lot { segments = 3 })
  | [ "parking-lot"; k ] -> (
      match int_of_string_opt k with
      | Some segments -> Ok (Parking_lot { segments })
      | None -> Error "parking-lot wants parking-lot:<segments>")
  | [ "power-law" ] -> Ok (Power_law { routers = 64; edges_per_node = 2 })
  | [ "power-law"; n; m ] -> (
      match (int_of_string_opt n, int_of_string_opt m) with
      | Some routers, Some edges_per_node -> Ok (Power_law { routers; edges_per_node })
      | _ -> Error "power-law wants power-law:<routers>:<edges>")
  | _ ->
      Error
        (Printf.sprintf
           "unknown topology %S (want dumbbell | fanin[:d:f] | parking-lot[:k] | power-law[:n:m])"
           s)

type config = {
  sc_scheme : Scheme.factory;
  sc_topology : topology_kind;
  sc_senders : int;  (* total flood members across all aggregates *)
  sc_aggregates : int;
  sc_swarm_mode : Swarm.mode;
  sc_attack_bps : float;  (* aggregate attack rate, split evenly over members *)
  sc_attack_pkt_bytes : int;
  sc_n_users : int;
  sc_transfers_per_user : int;
  sc_transfer_bytes : int;
  sc_max_time : float;
  sc_seed : int;
  sc_bottleneck_bps : float;
  sc_access_bps : float;
}

let default =
  {
    sc_scheme = Scheme.tva ();
    sc_topology = Fan_in { depth = 3; fanout = 4 };
    sc_senders = 1000;
    sc_aggregates = 4;
    sc_swarm_mode = Swarm.Coalesced;
    sc_attack_bps = 40e6;
    sc_attack_pkt_bytes = 1000;
    sc_n_users = 10;
    sc_transfers_per_user = 5;
    sc_transfer_bytes = 20 * 1024;
    sc_max_time = 30.;
    sc_seed = 1;
    sc_bottleneck_bps = 10e6;
    sc_access_bps = 10e6;
  }

type result = {
  sr_scheme : string;
  sr_topology : string;
  sr_senders : int;
  sr_fraction_completed : float;
  sr_avg_transfer_time : float;
  sr_metrics : Metrics.t;
  sr_sim_end : float;
  sr_events : int;
  sr_attack_packets : int;
  sr_routers : int;
  sr_wall_s : float;
  sr_obs : Obs.Report.t option;
}

(* One view over every generator: where senders plug in, where the scheme
   routers go, and who the victim is. *)
type built = {
  b_net : Net.t;
  b_routers : Net.node list;
  b_attach : Net.node array; (* round-robin ingress points for hosts *)
  b_destination : Net.node;
  b_dest_addr : Wire.Addr.t;
}

let build_topology cfg scheme sim =
  let make_qdisc ~bandwidth_bps = scheme.Scheme.make_qdisc ~bandwidth_bps in
  match cfg.sc_topology with
  | Scale_dumbbell ->
      let topo =
        Topology.dumbbell ~bottleneck_bps:cfg.sc_bottleneck_bps ~access_bps:cfg.sc_access_bps
          ~n_users:0 ~n_attackers:0 ~make_qdisc sim
      in
      {
        b_net = topo.Topology.net;
        b_routers = [ topo.Topology.left; topo.Topology.right ];
        b_attach = [| topo.Topology.left |];
        b_destination = topo.Topology.destination;
        b_dest_addr = Topology.destination_addr;
      }
  | Fan_in { depth; fanout } ->
      let t =
        Topology.fanin ~depth ~fanout ~bottleneck_bps:cfg.sc_bottleneck_bps ~make_qdisc sim
      in
      {
        b_net = t.Topology.fi_net;
        b_routers = Array.to_list t.Topology.fi_routers;
        b_attach = t.Topology.fi_leaves;
        b_destination = t.Topology.fi_destination;
        b_dest_addr = Topology.fanin_destination_addr;
      }
  | Parking_lot { segments } ->
      let t =
        Topology.parking_lot ~segments ~bottleneck_bps:cfg.sc_bottleneck_bps
          ~access_bps:cfg.sc_access_bps ~make_qdisc sim
      in
      (* Hosts enter at every router but the last, so traffic to the far
         destination loads later segments cumulatively. *)
      {
        b_net = t.Topology.pl_net;
        b_routers = Array.to_list t.Topology.pl_routers;
        b_attach = Array.sub t.Topology.pl_routers 0 segments;
        b_destination = t.Topology.pl_destination;
        b_dest_addr = Topology.parking_destination_addr;
      }
  | Power_law { routers; edges_per_node } ->
      let t =
        Topology.power_law ~routers ~edges_per_node ~bottleneck_bps:cfg.sc_bottleneck_bps
          ~seed:cfg.sc_seed ~make_qdisc sim
      in
      {
        b_net = t.Topology.pw_net;
        b_routers = Array.to_list t.Topology.pw_routers;
        b_attach = t.Topology.pw_routers;
        b_destination = t.Topology.pw_destination;
        b_dest_addr = Topology.power_law_destination_addr;
      }

let run ?obs cfg =
  if cfg.sc_senders <= 0 then invalid_arg "Scale.run: need at least one sender";
  if cfg.sc_senders >= 0x01000000 then
    invalid_arg "Scale.run: sender count exceeds the 0x0b spoofed-address prefix (2^24)";
  if cfg.sc_aggregates <= 0 then invalid_arg "Scale.run: need at least one aggregate";
  let aggregates = min cfg.sc_aggregates cfg.sc_senders in
  let sim = Sim.create ~seed:cfg.sc_seed () in
  let scheme = cfg.sc_scheme sim in
  let b = build_topology cfg scheme sim in
  let make_qdisc ~bandwidth_bps = scheme.Scheme.make_qdisc ~bandwidth_bps in
  let pick i = b.b_attach.(i mod Array.length b.b_attach) in
  let users =
    Array.init cfg.sc_n_users (fun i ->
        Topology.attach_host ~bandwidth_bps:cfg.sc_access_bps ~make_qdisc ~net:b.b_net
          ~router:(pick i) ~addr:(Topology.user_addr i)
          ~name:("user" ^ string_of_int i)
          ())
  in
  (* The swarm ingress nodes carry the whole attack share of their members,
     so their uplinks must not be the choke point — the interesting drops
     belong to the scheme's router queues. *)
  let swarm_uplink_bps =
    Float.max cfg.sc_access_bps (2. *. cfg.sc_attack_bps /. float_of_int aggregates)
  in
  let swarm_nodes =
    Array.init aggregates (fun k ->
        let node = Net.add_node ~name:("swarm" ^ string_of_int k) b.b_net (fun _ ~in_link:_ _ -> ()) in
        ignore
          (Net.duplex b.b_net node (pick k) ~bandwidth_bps:swarm_uplink_bps ~delay:0.010
             ~qdisc:(fun () -> make_qdisc ~bandwidth_bps:swarm_uplink_bps));
        node)
  in
  Net.compute_routes b.b_net;
  let harness =
    Option.map (fun oc -> Experiment.Harness.setup oc ~sim ~net:b.b_net ~scheme) obs
  in
  let router_obs node = Option.map (fun h -> Experiment.Harness.counters_for h node) harness in
  List.iter
    (fun r -> scheme.Scheme.install_router ?obs:(router_obs r) r ~link_bps:cfg.sc_bottleneck_bps)
    b.b_routers;
  let dest_endpoint =
    scheme.Scheme.make_endpoint ?obs:(router_obs b.b_destination) b.b_destination
      ~role:Scheme.Destination
      ~policy:(Tva.Policy.server ~suspicious:Experiment.attacker_oracle ())
  in
  let _server = Agents.Transfer_server.create ~sim ~endpoint:dest_endpoint () in
  let metrics = Metrics.create () in
  let per_user_metrics =
    Array.to_list
      (Array.mapi
         (fun i user ->
           let endpoint =
             scheme.Scheme.make_endpoint ?obs:(router_obs user) user ~role:Scheme.User
               ~policy:(Tva.Policy.client ())
           in
           let m = Metrics.create () in
           (* No early [Sim.stop] when the users finish: the run always
              goes to [sc_max_time], so its event and attack-packet counts
              are those of a fixed horizon whatever the users' outcome. *)
           let _client =
             Agents.Transfer_client.create ~sim ~endpoint
               ~server:b.b_dest_addr ~transfer_bytes:cfg.sc_transfer_bytes
               ~max_transfers:cfg.sc_transfers_per_user
               ~start_at:(0.01 +. (0.011 *. float_of_int i))
               ~conn_base:((i + 1) * 1_000_000)
               ~metrics:m ()
           in
           m)
         users)
  in
  (* Split members over aggregates; member addresses are globally indexed
     spoofed 0x0b-prefix sources, so the destination's suspicion oracle and
     any per-sender router state see the full botnet, not the few ingress
     nodes.  A legacy flood packet is shim-less and draws no replies, so
     the spoofed sources never need reverse routes. *)
  let per = cfg.sc_senders / aggregates and rem = cfg.sc_senders mod aggregates in
  let swarms =
    Array.init aggregates (fun k ->
        let n = per + (if k < rem then 1 else 0) in
        if n = 0 then None
        else begin
          let base = (k * per) + min k rem in
          let node = swarm_nodes.(k) in
          let member_rate = cfg.sc_attack_bps /. float_of_int cfg.sc_senders in
          let emit ~member ~due:_ =
            let src = Topology.attacker_addr (base + member) in
            Net.originate node
              (Wire.Packet.make ~src ~dst:b.b_dest_addr
                 (Wire.Packet.Raw cfg.sc_attack_pkt_bytes))
          in
          Some
            (Swarm.start ~sim ~n ~seed:(cfg.sc_seed + (1000 * k))
               ~rate_bps:member_rate ~pkt_bytes:cfg.sc_attack_pkt_bytes
               ~mode:cfg.sc_swarm_mode ~emit ())
        end)
  in
  (* Telemetry ticks ride an auxiliary event chain ({!Obs.Timeseries.attach}),
     so a telemetry-on run is bit-identical to a telemetry-off one.  The
     footprint channels' maxima are [tva_sim scale --stats]'s peak-memory
     figures; [heap_words] allocates one [Gc.stat] record per tick. *)
  let series =
    Option.bind harness (fun h ->
        Experiment.Harness.telemetry h (fun () ->
            [
              Experiment.Harness.demoted h b.b_routers;
              Experiment.Harness.drops (List.map Net.link_qdisc (Net.links b.b_net));
              Experiment.Harness.flow_cache h;
              Experiment.Harness.events h;
              ( "heap_words",
                Obs.Timeseries.Level,
                Obs.Timeseries.Int_fn (fun () -> (Gc.quick_stat ()).Gc.heap_words) );
              ("pending", Obs.Timeseries.Level, Obs.Timeseries.Int_fn (fun () -> Sim.pending sim));
            ]))
  in
  Option.iter (fun ts -> Obs.Timeseries.attach ts sim ~until:cfg.sc_max_time) series;
  let wall_start = Unix.gettimeofday () in
  Sim.run ~until:cfg.sc_max_time sim;
  let wall_s = Unix.gettimeofday () -. wall_start in
  List.iter (Metrics.merge_into metrics) per_user_metrics;
  let attack_packets =
    Array.fold_left
      (fun acc s -> match s with None -> acc | Some s -> acc + Swarm.packets_sent s)
      0 swarms
  in
  let obs_report = Option.map (fun h -> Experiment.Harness.report ?series h ~wall_s) harness in
  {
    sr_scheme = scheme.Scheme.name;
    sr_topology = topology_kind_to_string cfg.sc_topology;
    sr_senders = cfg.sc_senders;
    sr_fraction_completed = Metrics.fraction_completed metrics;
    sr_avg_transfer_time = Metrics.avg_transfer_time metrics;
    sr_metrics = metrics;
    sr_sim_end = Sim.now sim;
    sr_events = Sim.events_processed sim;
    sr_attack_packets = attack_packets;
    sr_routers = List.length b.b_routers;
    sr_wall_s = wall_s;
    sr_obs = obs_report;
  }
