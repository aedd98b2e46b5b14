(** A uniform interface over the five simulated schemes — TVA plus its
    four comparators (SIFF, pushback, the legacy Internet, and NetFence) —
    so one experiment harness can drive them all (paper Sec. 5). *)

type role =
  | User
  | Attacker
  | Destination
  | Colluder

type endpoint = {
  ep_addr : Wire.Addr.t;
  ep_send_segment : dst:Wire.Addr.t -> Wire.Tcp_segment.t -> unit;
  ep_set_demux : (src:Wire.Addr.t -> Wire.Tcp_segment.t -> unit) -> unit;
  ep_send_raw : dst:Wire.Addr.t -> bytes:int -> unit;
      (** Well-behaved bulk send under the scheme (renews its
          authorization; used for the Fig. 10 authorized flood). *)
  ep_send_legacy : dst:Wire.Addr.t -> bytes:int -> unit;
      (** Unauthorized/legacy packet (Fig. 8 flood). *)
  ep_send_request : dst:Wire.Addr.t -> bytes:int -> unit;
      (** A fresh request/explorer each call (Fig. 9 flood). *)
  ep_flood_misbehaving : dst:Wire.Addr.t -> bytes:int -> unit;
      (** The Fig. 11 attacker: obtain an authorization once, then hammer
          with it regardless of budgets or revocation, falling to whatever
          priority the network then assigns. *)
  ep_reacquire_latencies : unit -> float list;
      (** {!Tva.Host.reacquire_latencies} for TVA endpoints (how long each
          recovery from a demotion echo took); [\[\]] for schemes without
          the demote/re-request cycle. *)
}

type t = {
  name : string;
  make_qdisc : bandwidth_bps:float -> Qdisc.t;
  install_router : ?obs:Obs.Counters.t -> Net.node -> link_bps:float -> unit;
      (** Set the router handler (and start any controller) on a router
          node; call after links exist.  [obs] threads a counter instance
          into the router's processing path (TVA only; the other schemes
          ignore it). *)
  make_endpoint : ?obs:Obs.Counters.t -> Net.node -> role:role -> policy:Tva.Policy.t -> endpoint;
      (** [obs] threads a counter instance into the host protocol layer
          (recovery events; TVA only). *)
  report_caches : unit -> Obs.Report.cache_row list;
      (** Flow-cache statistics for every router this scheme instance has
          installed, in creation order (empty for schemes without
          per-flow state). *)
  cache_occupancy : unit -> int;
      (** Total live flow-cache entries across this scheme instance's
          routers right now — an allocation-free int probe (0 for schemes
          without per-flow state), suitable as an {!Obs.Timeseries.Int_fn}
          level channel on the telemetry tick path. *)
  fault_targets : unit -> Faults.Inject.router_site list;
      (** Router-level fault surfaces (cache wipe, secret rotation) for
          every router this scheme instance has installed, in creation
          order — what the chaos harness hands to {!Faults.Inject}.  Empty
          for schemes without wipeable/rotatable router state; link-level
          faults still apply to them. *)
}

type factory = Sim.t -> t
(** Schemes are instantiated per simulation run. *)

val tva : ?params:Tva.Params.t -> unit -> factory
val siff : ?rotation_period:float -> unit -> factory
val pushback : ?interval:float -> unit -> factory
val internet : unit -> factory

val netfence : ?params:Netfence.Router.params -> unit -> factory
(** Closed-loop congestion policing (PAPERS.md): MACed congestion
    feedback stamped at the bottleneck, per-sender AIMD
    rate limiters at the access router, headerless traffic demoted to a
    low-priority legacy channel. *)
