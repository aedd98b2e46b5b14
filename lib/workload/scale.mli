(** The million-sender scale experiment (DESIGN.md section 13).

    Legitimate users run real transfer clients; the botnet is folded into
    {!Swarm} aggregates whose members inject legacy flood packets with
    spoofed per-member 0x0b-prefix sources from a few ingress nodes.  The
    node/link graph stays structural (tens of routers) while the sender
    count sweeps to 10^5 and beyond — the regime the SoA state exists
    for. *)

type topology_kind =
  | Scale_dumbbell  (** the Fig. 7 shape, senders behind the left router *)
  | Fan_in of { depth : int; fanout : int }  (** {!Topology.fanin} *)
  | Parking_lot of { segments : int }  (** {!Topology.parking_lot} *)
  | Power_law of { routers : int; edges_per_node : int }  (** {!Topology.power_law} *)

val topology_kind_to_string : topology_kind -> string

val topology_kind_of_string : string -> (topology_kind, string) result
(** ["dumbbell"], ["fanin[:depth:fanout]"], ["parking-lot[:segments]"],
    ["power-law[:routers:edges]"]. *)

type config = {
  sc_scheme : Scheme.factory;
  sc_topology : topology_kind;
  sc_senders : int;
      (** total flood members across all aggregates; must stay below 2^24
          so spoofed sources fit the 0x0b prefix the attacker oracle keys
          on *)
  sc_aggregates : int;  (** swarm objects the members are split over *)
  sc_swarm_mode : Swarm.mode;
  sc_attack_bps : float;  (** aggregate attack rate, split evenly over members *)
  sc_attack_pkt_bytes : int;
  sc_n_users : int;
  sc_transfers_per_user : int;
  sc_transfer_bytes : int;
  sc_max_time : float;
  sc_seed : int;
  sc_bottleneck_bps : float;
  sc_access_bps : float;
}

val default : config
(** TVA, 3x4 fan-in, 1000 senders over 4 coalesced aggregates, 40 Mb/s
    attack against a 10 Mb/s bottleneck, 10 users x 5 transfers. *)

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
  sr_wall_s : float;  (** wall-clock seconds spent inside the event loop *)
  sr_obs : Obs.Report.t option;
}

val run : ?obs:Experiment.obs_config -> config -> result
(** Build the topology, wire users/aggregates/routers for the scheme, run
    to [sc_max_time], and report.  [?obs] goes through
    {!Experiment.Harness}, as in {!Experiment.run}.  With telemetry on, the
    series adds two footprint Level channels to the shared ones:
    [heap_words] (major-heap words, [Gc.quick_stat]) and [pending]
    ({!Sim.pending}); their [s_max] in [sr_obs] is where
    [tva_sim scale --stats] reads its peak memory. *)
