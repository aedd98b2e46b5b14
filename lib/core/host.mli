(** The TVA host layer (paper Sec. 4.2) — what the paper deploys as a
    proxy/NAT-style box at the customer edge.

    On the send side it decides, per destination, what shim each outgoing
    packet carries: a request when it holds no capabilities, the full
    capability list right after a grant (so routers can populate their
    caches), the 48-bit nonce alone afterwards, and a renewal once the
    byte or time budget passes the renewal threshold.  On the receive side
    it converts pre-capabilities into grants according to the destination
    {!Policy}, piggybacks them (and demotion echoes) on the next reverse
    packet, and installs grants carried by arriving packets.

    Transport is decoupled: TCP connections send through {!send_segment}
    and receive via the demux callback, so the same host logic serves the
    legitimate users, the public server, and the colluder. *)

type t

type grant = {
  caps : Wire.Cap_shim.cap list;
  nonce : int64;
  n_kb : int;
  t_sec : int;
  granted_at : float;
  mutable bytes_sent : int;
  mutable caps_carried : bool;
      (** Whether a packet carrying the full list has been sent, i.e. the
          sender models router caches as warm (Sec. 3.7, optimistic). *)
}

type counters = {
  mutable requests_sent : int;
  mutable renewals_sent : int;
  mutable grants_received : int;
  mutable refusals_received : int;
  mutable demotions_seen : int; (* demoted packets that reached us *)
  mutable demotion_echoes_sent : int;
  mutable grants_issued : int;
  mutable requests_refused : int;
  mutable reacquired : int;
      (** grants received that ended a demotion episode (the grant was
          previously cancelled by a demotion echo) *)
  mutable demoted_recovered : int;
      (** receive side: sources whose traffic was arriving demoted and then
          validated again *)
}

val create :
  ?params:Params.t ->
  ?hash:Capability.keyed ->
  ?auto_reply:bool ->
  ?obs:Obs.Counters.t ->
  policy:Policy.t ->
  node:Net.node ->
  rng:Rng.t ->
  unit ->
  t
(** Installs itself as the node's handler.  The node must have an address.
    Raises [Invalid_argument] otherwise.

    [auto_reply] (default false) makes the host immediately send a small
    packet whenever it owes return information to a peer and has no
    transport traffic to piggyback it on — how a colluder answers raw
    request floods with grants.  TCP-based hosts leave it off; their
    SYN/ACKs and ACKs carry the return channel.

    [obs] (default {!Obs.Counters.nop}) receives the recovery events
    [Reacquired] and [Demoted_recovered]. *)

val addr : t -> Wire.Addr.t
val node : t -> Net.node
val counters : t -> counters

val set_segment_handler : t -> (src:Wire.Addr.t -> Wire.Tcp_segment.t -> unit) -> unit
(** Where inbound TCP segments are delivered (the workload's demux). *)

val send_segment : t -> dst:Wire.Addr.t -> Wire.Tcp_segment.t -> unit
(** Wrap a TCP segment in a packet with the appropriate capability shim
    and originate it. *)

val send_raw : t -> dst:Wire.Addr.t -> bytes:int -> unit
(** Same shim logic, opaque payload (well-behaved bulk sender). *)

val send_legacy : t -> dst:Wire.Addr.t -> bytes:int -> unit
(** No shim at all: legacy traffic (also what legacy-flood attackers emit). *)

val send_request_flood_packet : t -> dst:Wire.Addr.t -> bytes:int -> unit
(** A fresh request shim on an opaque payload — the Sec. 5.2 request flood. *)

val grant_for : t -> dst:Wire.Addr.t -> grant option
(** The current sender-side grant towards [dst], if any (flooders read this
    to craft their own over-budget packets). *)

val reacquire_latencies : t -> float list
(** One entry per reacquisition, in order: seconds from the first request
    sent after a demotion echo cancelled the grant until the replacement
    grant arrived.  The paper's Sec. 3.8 bound is one round trip plus the
    request-channel queueing delay; {!Faults.Invariants} checks it. *)
