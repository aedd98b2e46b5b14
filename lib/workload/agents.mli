(** Traffic agents: the repeating-transfer application the paper's
    legitimate users run, the TCP transfer sink on the destination, and the
    constant-rate flooders of the attack scenarios. *)

module Transfer_client : sig
  type t

  val create :
    sim:Sim.t ->
    endpoint:Scheme.endpoint ->
    server:Wire.Addr.t ->
    transfer_bytes:int ->
    max_transfers:int ->
    ?start_at:float ->
    ?conn_base:int ->
    metrics:Metrics.t ->
    ?on_all_done:(unit -> unit) ->
    unit ->
    t
  (** Starts transfer 1 at [start_at]; each subsequent transfer starts the
      moment the previous completes or aborts (paper Sec. 5).  Installs the
      endpoint demux. *)
end

module Transfer_server : sig
  type t

  val create : sim:Sim.t -> endpoint:Scheme.endpoint -> unit -> t
  (** Accepts any number of concurrent connections from any source,
      keyed by (source, connection id). *)
end

module Flooder : sig
  type mode =
    | Legacy  (** unauthorized packets, Fig. 8 *)
    | Request  (** fresh request/explorer per packet, Fig. 9 *)
    | Authorized  (** well-behaved bulk sender via a colluder grant, Fig. 10 *)
    | Misbehaving  (** authorized once then over-budget, Fig. 11 *)

  val start :
    sim:Sim.t ->
    endpoint:Scheme.endpoint ->
    dst:Wire.Addr.t ->
    rate_bps:float ->
    ?pkt_bytes:int ->
    ?start_at:float ->
    ?stop_at:float ->
    ?rng:Rng.t ->
    mode:mode ->
    unit ->
    unit
  (** Emits fixed-size packets at constant rate from [start_at] (default 0)
      until [stop_at] (default: forever).  Default packet size 1000 bytes,
      matching the legitimate users' data packets.  [rng] (default
      [Rng.split (Sim.rng sim)]) drives the start phase and per-packet
      jitter; passing [Rng.lane ~seed i] makes flooder [i] reproduce member
      [i] of a {!Swarm} bit-for-bit, which the aggregate-equivalence tests
      rely on. *)
end
