(** The Sec. 5 experiment harness: a dumbbell with 10 legitimate users
    repeatedly transferring 20 KB to a destination while a configurable
    attack runs, measured by completion fraction and transfer time. *)

type attack =
  | No_attack
  | Legacy_flood of { rate_bps : float }
      (** Each attacker floods the destination with unauthorized packets
          (Fig. 8). *)
  | Request_flood of { rate_bps : float }
      (** Each attacker floods the destination with request packets; the
          destination can tell attacker requests apart and refuses them
          (Fig. 9). *)
  | Authorized_flood of { rate_bps : float }
      (** A colluder behind the bottleneck authorizes the attackers, who
          send fully authorized traffic at maximum rate (Fig. 10). *)
  | Imprecise_flood of {
      rate_bps : float;
      groups : int;
      group_interval : float;
      start_at : float;
    }
      (** The Fig. 11 policy experiment: the destination grants everyone
          once (32 KB / 10 s) but never renews attackers; attackers flood
          past their budget.  [groups = 1] is the high-intensity attack;
          [groups = 10] staggers group starts by [group_interval]. *)
  | Custom of (Sim.t -> Scheme.t -> Topology.t -> unit)
      (** An attack the constructors above do not model (the ablations'
          address spoofer and flow-cache exhaustion).  {!run} calls it
          once, where it starts the other attacks: after the routers, the
          destination and the users exist and before the fault hook and
          the clock start.  It gets the run's own scheme, so the nodes and
          endpoints it adds are the run's.  The dumbbell always has a
          colluder, with no endpoint on it; the attack makes one if it
          wants one.  Nodes it adds need a {!Net.compute_routes} call. *)

type config = {
  scheme : Scheme.factory;
  n_users : int;
  n_attackers : int;
  attack : attack;
  transfers_per_user : int;
  transfer_bytes : int;
  max_time : float;  (** hard simulation cutoff *)
  seed : int;
  bottleneck_bps : float;
  access_bps : float;
  user_start : float;
      (** user 0's first transfer starts here; user [i] starts [0.011 * i]
          s later *)
}

val default : config
(** The paper's setup: 10 users, 10 Mb/s bottleneck, 60 ms RTT, 20 KB
    transfers, TVA scheme, no attack; 50 transfers per user and a 120 s
    cutoff to keep runs laptop-sized; users start at 10 ms. *)

type result = {
  scheme_name : string;
  fraction_completed : float;
  avg_transfer_time : float;
  metrics : Metrics.t;  (** all users' transfers, merged *)
  user_metrics : Metrics.t list;  (** each user's own transfers, user order *)
  user_goodputs : float list;
      (** per-user completed-payload goodput (bits/s of simulated time),
          user order — the shares the Jain index is computed over *)
  jain_index : float;
      (** {!Metrics.jain_index} over [user_goodputs]: how evenly the
          attack's survivors share the bottleneck *)
  sim_end : float;
  events : int;  (** simulator events fired during the run (for events/sec) *)
  obs : Obs.Report.t option;  (** present iff [run ?obs] was given a config *)
  flight : Obs.Flight.t option;
      (** the run's flight recorder (present iff telemetry was on and
          [obs_flight_dir] was set) — callers may {!Obs.Flight.trigger} it
          post-run, e.g. on a chaos invariant failure *)
}

type obs_config = {
  obs_trace_capacity : int;  (** trace-ring capacity; 0 disables tracing *)
  obs_trace_sample : int;  (** keep 1 trace record in [k] *)
  obs_profile : bool;  (** event-loop wall-time profiler (Unix clock) *)
  obs_telemetry_interval : float;
      (** sim-seconds between telemetry windows; 0 disables.  The tick
          chain rides on auxiliary events, so telemetry-on runs are
          bit-identical to telemetry-off ones.  Channels: demoted,
          request_bytes (TVA), drops, queue_depth, flow_cache, faults (when
          a hook is installed), events; detectors: demotion-storm,
          request-saturation, queue-buildup, fault-activity. *)
  obs_flight_dir : string option;
      (** directory for flight-recorder dumps ([flight_<label>_<n>.json],
          each holding the last 64 telemetry windows); [None] disables the
          recorder.  Requires telemetry. *)
  obs_flight_label : string;  (** dump file stem, e.g. the chaos scenario label *)
}

val obs_default : obs_config
(** Counters + net-event bridge only: no trace, no profiler, no telemetry. *)

(** The observability set-up and report assembly shared by {!run} and
    {!Scale.run}: the counter registry, the trace ring, the net-event
    bridge, the profiler, node names for trace and flight dumps, the
    channels both
    drivers record, and the {!Obs.Report.t}.  Each driver adds only its
    own telemetry channels. *)
module Harness : sig
  type t

  type channel = string * Obs.Timeseries.mode * Obs.Timeseries.source
  (** A telemetry channel: name, mode and source, as {!Obs.Timeseries.add}
      takes them. *)

  val setup : obs_config -> sim:Sim.t -> net:Net.t -> scheme:Scheme.t -> t
  (** Call once the routers and users exist.  Installs the bridge and,
      when [obs_profile] is set, attaches the profiler.  Nodes added later
      (a [Custom] attack's) are counted and named like the others. *)

  val counters_for : t -> Net.node -> Obs.Counters.t
  (** The node's registry row, keyed by {!Net.node_name} and registered
      on first touch.  Memoized by {!Net.node_id}, so repeated calls are
      an array load. *)

  val demoted : t -> Net.node list -> channel
  (** ["demoted"]: demotions summed over the given routers. *)

  val drops : Qdisc.t list -> channel
  (** ["drops"]: drops summed over every qdisc nested in the list. *)

  val flow_cache : t -> channel
  (** ["flow_cache"]: the scheme's live flow-cache entries. *)

  val events : t -> channel
  (** ["events"]: simulator events fired. *)

  val telemetry : t -> (unit -> channel list) -> Obs.Timeseries.t option
  (** A series over the channels, in list order, when
      [obs_telemetry_interval] is positive; [None] (and the list is never
      built) otherwise.  The caller attaches it. *)

  val report :
    ?series:Obs.Timeseries.t -> ?detect:Obs.Detect.t -> t -> wall_s:float -> Obs.Report.t
  (** Call after [Sim.run]: detaches the profiler, closes [detect]'s open
      incidents, and snapshots everything.  [wall_s] is the event loop's
      own wall time. *)
end

val run :
  ?obs:obs_config ->
  ?faults:(Faults.Inject.env -> Scheme.endpoint list -> unit) ->
  config ->
  result
(** With [?obs] absent, nothing observability-related is installed and the
    run is byte-identical to the pre-observability harness.  [obs_config]
    is pure data, so sweep cells can carry it across [Pool] domains and
    each run builds private counter/trace/profiler state.

    With [?faults] present the hook runs once, after the topology,
    routers, endpoints and attack are installed and just before the clock
    starts.  It gets the fault sites as a {!Faults.Inject.env}: every
    link, labeled and classified; {!Scheme.t.fault_targets}; the
    ["faults"] registry row when observability is on, else a nop; and a
    private rng stream split off the simulation's, so injector draws never
    perturb workload randomness.  It also gets the legitimate senders in
    user order, whose [ep_reacquire_latencies] can be read after the run.
    Typically it calls {!Faults.Inject.install} and stashes what it needs
    for post-run checks.  With it absent no fault state is created and no
    rng is split, so unfaulted runs stay byte-identical. *)

val attacker_oracle : Wire.Addr.t -> bool
(** True for addresses in the attacker range — the "destination can
    distinguish likely attackers, even imprecisely" oracle of Secs. 5.2
    and 5.4. *)
