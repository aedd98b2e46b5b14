(** Table 1's packet types (paper Sec. 6), driven through a real
    {!Tva.Router.process}.

    One router, its simulator held at t = 0, and prebuilt packets for
    {!flows} flows per op:

    - legacy: no shim;
    - request: one pre-capability mint;
    - regular with a cached entry: a nonce-only packet matching its flow's
      record — lookup, nonce compare, byte/ttl charge, no crypto;
    - regular without a cached entry: the packet lists its capability but
      carries a nonce the record does not hold, so the router recomputes
      both hashes and renews the record (two nonce sets alternate per
      flow);
    - renewal with / without a cached entry: the two regular cases plus
      one fresh pre-capability mint.

    The cached pair and the uncached pair each share one destination's
    flows and records; the four groups use distinct destinations, so one
    group's records never steer another's packets.  Between sends only
    the shim's router-written fields are reset ({!rewind}); the router's
    state is never touched. *)

type t

type op =
  | Legacy_forward
  | Request
  | Regular_cached
  | Regular_uncached
  | Renewal_cached
  | Renewal_uncached

val all_ops : op list
val op_name : op -> string

val flows : int
(** Flows per op (1024). *)

val create : ?hash:(module Crypto.Keyed_hash.S) -> unit -> t
(** [hash] defaults to {!Crypto.Keyed_hash.Prototype}, the prototype's
    AES-hash + HMAC-SHA1 pairing. *)

val router : t -> Tva.Router.t

val run : t -> op -> unit
(** Send [op]'s next packet, cycling over its flows. *)

val calibrate : ?iters:int -> t -> op -> float
(** Wall-clock nanoseconds per packet over [iters] (default 20000)
    packets after a warmup.  Raises [Failure] as {!on_branch} does. *)

val on_branch : t -> op -> packets:int -> (unit -> 'a) -> 'a
(** [on_branch t op ~packets f] runs [f], which must send exactly
    [packets] of [op]'s packets, and raises [Failure] unless [op]'s
    counters in {!Tva.Router.counters} moved by exactly [packets], no
    packet was demoted and the flow cache gained no record. *)

val packets : t -> op -> pass:int -> Wire.Packet.t array
(** [op]'s packet for each flow on pass [pass], for harnesses that loop
    over {!Tva.Router.process} themselves.  Only the uncached ops
    alternate between two sets: a harness that sends whole passes over a
    prefix of the flows, from pass 0 on a fresh [t], keeps them on their
    branch, as long as it does not also call {!run} for either of them. *)

val rewind : Wire.Packet.t -> unit
(** Reset what routers write into a packet's shim — the capability
    pointer, the request lists and the fresh pre-capabilities — so it can
    be sent again. *)
