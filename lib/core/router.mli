(** The TVA capability router (paper Sec. 4.3 and Fig. 6).

    On each packet the router:
    - passes legacy (shimless or already-demoted) packets through to the
      legacy queue;
    - stamps request packets with a pre-capability (and, at a trust
      boundary, a path identifier derived from the arrival interface);
    - checks regular packets against the flow cache (nonce match) or, when
      carrying a capability list, validates the capability addressed to
      this router by recomputing the two hashes; valid packets are charged
      against their byte limit, renewals get a fresh pre-capability minted
      into the packet, and anything that fails is demoted to legacy
      priority rather than dropped.

    Scheduling (Fig. 2) is in the qdiscs built by {!Qdiscs}; this module is
    purely the per-packet processing and state. *)

type t

val create :
  ?params:Params.t ->
  ?hash:Capability.keyed ->
  ?trust_boundary:bool ->
  ?obs:Obs.Counters.t ->
  secret_master:string ->
  router_id:int ->
  sim:Sim.t ->
  link_bps:float ->
  unit ->
  t
(** [link_bps] provisions the flow cache ([C/(N/T)_min] records).
    [trust_boundary] defaults to [true] (edge router).  [obs] (default
    {!Obs.Counters.nop}) is where the router counts — packet class on
    arrival, validation outcomes (a [Nonce_hit] not demoted is a cache
    accept), reason-coded demotions, flow-cache activity; with the default
    sink the increments are blind stores and the path stays
    allocation-free. *)

val handler : t -> Net.handler
(** A drop-in node handler: processes the packet then forwards it along
    the route. *)

val process : t -> in_interface:int -> Wire.Packet.t -> unit
(** The processing step alone (exposed for tests and the per-packet
    benchmark): mutates the packet's shim — appending pre-capabilities /
    path ids, demoting, charging byte counts. *)

(** {1 Introspection and fault injection} *)

val cache : t -> Flow_cache.t

val flush_cache : t -> unit
(** Simulates a route change / router restart losing cache state
    (Sec. 3.8): subsequent nonce-only packets demote until the sender
    re-sends capabilities or re-requests. *)

val rotate_secret : t -> unit
(** Forces the router onto a fresh master secret, invalidating all
    outstanding capabilities (restart without persistence). *)
