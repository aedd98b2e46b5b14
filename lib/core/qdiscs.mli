(** Construction of the TVA link scheduler (paper Fig. 2) for a link of a
    given capacity: requests are DRR-fair-queued by most-recent path
    identifier behind a token bucket capped at [params.request_fraction] of
    the link; regular packets are DRR-fair-queued by destination address
    over at most the flow-cache bound of classes; legacy (and demoted)
    traffic takes a FIFO served last.  The three are the classes of one
    strict-priority qdisc, served in that order. *)

val classify_by_shim : Wire.Packet.t -> int
(** The link scheduler's class index: 0 for a request shim, 1 for an
    undemoted regular shim, 2 (legacy) for a demoted or shimless packet. *)

val make :
  ?regular_key:[ `Destination | `Source ] ->
  params:Params.t ->
  bandwidth_bps:float ->
  unit ->
  Qdisc.t
(** [regular_key] selects the fair-queueing key for authorized traffic:
    per-destination (the paper's default) or per-source (what Sec. 7 warns
    against when sources can be spoofed). *)

val make_sfq_requests : params:Params.t -> bandwidth_bps:float -> buckets:int -> seed:int -> Qdisc.t
(** The Sec. 3.9 ablation variant: requests are stochastically fair-queued
    over [buckets] hash buckets instead of per path identifier, exposing
    the deliberate-collision weakness. *)
