(** Pushback / aggregate-based congestion control (Mahajan et al. [16],
    as the TVA paper implements it for comparison: "recursively pushes
    destination-based network filters backwards across the incoming link
    that contributes most of the flood").

    Each controlled router runs a periodic controller.  When an output
    link's drop rate over the last interval exceeds a threshold, the
    router:

    + identifies the aggregate — the destination address suffering the
      most drops;
    + computes a limit for the aggregate that would bring arrivals down to
      the link capacity minus headroom;
    + divides that limit over the incoming links that carry the aggregate
      with a max-min allocation (big senders are clipped first, links
      sending less than their fair share are untouched);
    + pushes the per-link limits upstream: a token-bucket filter is
      installed at the upstream end of each clipped incoming link.

    Filters are refreshed every interval and withdrawn after the aggregate
    has been quiet for [release_after] intervals.  The scheme's known
    failure mode — which Fig. 8 of the TVA paper shows — is that with many
    attackers each incoming link carries a small, user-like share of the
    aggregate, so the max-min clip squeezes legitimate senders as hard as
    attackers. *)

type t

val create :
  ?interval:float ->
  ?drop_threshold:float ->
  ?headroom:float ->
  ?release_after:int ->
  ?max_filters:int ->
  sim:Sim.t ->
  unit ->
  t
(** Defaults: 1 s control interval, 5% drop-rate trigger, 10% capacity
    headroom, release after 3 quiet intervals, at most 50 concurrent
    rate-limit sessions per router (pushback daemons bound this; it is why
    very wide floods overwhelm the defense).  One instance is shared by
    all pushback routers of a network (it owns the qdisc-to-drop-stats
    registry). *)

val make_qdisc : t -> bandwidth_bps:float -> Qdisc.t
(** A FIFO that additionally attributes drops to destination aggregates,
    feeding the controller. *)

val install : ?obs:Obs.Counters.t -> t -> Net.node -> unit
(** Attach the plain forwarding handler plus the periodic ACC controller
    to this node.  Call after the topology (links) is built.  [obs]
    (default {!Obs.Counters.nop}) counts [Filter_slot_refused]: each
    filter the controller wanted but did not install because the node
    already held [max_filters]. *)

val active_filters : t -> int
(** Number of per-link rate limiters currently installed (all routers). *)
