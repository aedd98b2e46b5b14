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
    the shim's router-written fields are reset (the capability pointer,
    the request lists and the fresh pre-capabilities); the router's
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

val pass : t -> op -> unit
(** Send [op]'s packet for each of its {!flows} flows, once. *)

val on_branch : t -> op -> packets:int -> (unit -> 'a) -> 'a
(** [on_branch t op ~packets f] runs [f], which must send exactly
    [packets] of [op]'s packets, and raises [Failure] unless [op]'s
    events in the router's own {!Obs.Counters.t} moved by exactly
    [packets] ([Nonce_hit] for a cache accept), no packet was demoted and
    the flow cache gained no record. *)

type measurement = {
  ns_per_packet : float;  (** The median of [slice_ns]. *)
  slice_ns : float array;  (** Nanoseconds per packet in each slice, in slice order. *)
  minor_words_per_packet : float;  (** Over every timed pass. *)
}

val measure : t -> passes:int -> op list -> (op * measurement) list
(** [measure t ~passes ops] sends [passes] passes over each op's
    {!flows} packets and returns, in [ops]' order, the wall-clock
    nanoseconds and the minor-heap words per packet.  The ops are timed
    in interleaved slices (at most 16): every op gets its share of each
    slice in turn, and each share starts with [Gc.full_major] and one
    untimed pass, then reads the wall clock and [Gc.minor_words] across
    the same loop.  Each share runs under {!on_branch}, so [Failure] is
    raised as there. *)

val stage_ratios : (op * measurement) list -> (op * float * float) list
(** [(op, ratio, budget)] for each of the SipHash router's stage budgets,
    multiples of the legacy op's ns/packet: regular w/ cached entry 10x,
    regular w/o cached entry (validate) 25x, request 20x.  The legacy op
    does no TVA work, so the ratio cancels machine speed.  A stage's
    ratio is the median, over the slices, of its ns/packet over the
    legacy op's in the same slice.  Raises [Not_found] unless the results
    hold the legacy op and every budgeted one, measured in one call. *)
