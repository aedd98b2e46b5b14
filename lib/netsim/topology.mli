(** Canned topologies for the paper's experiments.

    {!dumbbell} is Fig. 7: 10 legitimate users and a variable number of
    attackers on one side of a 10 Mb/s, 10 ms bottleneck; the destination
    (and optionally a colluder) on the other side.  Every access link is
    10 ms, giving the paper's 60 ms RTT.  Handlers are installed separately
    by the protocol/agent layers; nodes start with a sink handler. *)

type t = {
  net : Net.t;
  left : Net.node;  (** bottleneck ingress router *)
  right : Net.node;  (** bottleneck egress router *)
  users : Net.node array;
  attackers : Net.node array;
  destination : Net.node;
  colluder : Net.node option;
  bottleneck : Net.link;  (** left -> right, the congested direction *)
  bottleneck_reverse : Net.link;
}
(** A built dumbbell: both routers, every endpoint node, and the two
    bottleneck directions, ready for handler installation. *)

val user_addr : int -> Wire.Addr.t
(** Address of legitimate user [i] (0-based). *)

val attacker_addr : int -> Wire.Addr.t
(** Address of attacker [i] (0-based); disjoint from the user range. *)

val destination_addr : Wire.Addr.t
(** Address of the shared destination behind the bottleneck. *)

val colluder_addr : Wire.Addr.t
(** Address of the optional colluder co-located with the destination. *)

val dumbbell :
  ?bottleneck_bps:float ->
  ?bottleneck_delay:float ->
  ?access_bps:float ->
  ?access_delay:float ->
  ?n_users:int ->
  ?with_colluder:bool ->
  n_attackers:int ->
  make_qdisc:(bandwidth_bps:float -> Qdisc.t) ->
  Sim.t ->
  t
(** Defaults: 10 Mb/s / 10 ms bottleneck, 10 Mb/s / 10 ms access links,
    10 users, no colluder.  [make_qdisc] builds the queue for every
    unidirectional link (rate limits inside schemes are fractions of the
    given bandwidth).  Routes are computed before returning. *)

val labeled_links : t -> (string * Net.link) list
(** Deterministic fault-targeting labels: [("bottleneck", _)] and
    [("rbottleneck", _)] first, then every access link as ["src->dst"] in
    creation order.  The fault layer ({!module:Faults}) resolves spec
    targets against these labels. *)

(** {1 Scale topologies}

    Generators for the million-sender scale experiments (DESIGN.md
    section 13).  Each returns one {!scale} record.  Unlike {!dumbbell}
    they do {e not} compute routes: attach host nodes first (e.g. with
    {!attach_host}), then run {!Net.compute_routes} once, paying the
    O(V * E) relaxation a single time. *)

val attach_host :
  ?bandwidth_bps:float ->
  ?delay:float ->
  make_qdisc:(bandwidth_bps:float -> Qdisc.t) ->
  net:Net.t ->
  router:Net.node ->
  addr:Wire.Addr.t ->
  name:string ->
  unit ->
  Net.node
(** A host node duplex-linked to [router] (defaults: 10 Mb/s, 10 ms),
    starting with a sink handler like every generator-made node. *)

type scale = {
  s_net : Net.t;
  s_routers : Net.node array;  (** every router, in creation order *)
  s_ingress : Net.node array;  (** where senders attach, round-robin *)
  s_destination : Net.node;  (** the victim host, behind the bottleneck *)
  s_destination_addr : Wire.Addr.t;
}
(** A built scale topology: the routers a scheme installs on, the ingress
    routers hosts attach to, and the destination with its address. *)

val fanin :
  ?depth:int ->
  ?fanout:int ->
  ?bottleneck_bps:float ->
  ?link_bps:float ->
  ?delay:float ->
  make_qdisc:(bandwidth_bps:float -> Qdisc.t) ->
  Sim.t ->
  scale
(** An ISP-style fan-in tree: edge routers aggregate through [depth]
    levels into one root, whose link to the destination is the
    bottleneck.  [s_routers] is in BFS order (the root first; the
    children of router [i] are [i * fanout + 1 .. i * fanout + fanout]),
    and [s_ingress] is the deepest level.  Defaults: 3 levels of 4-way
    fan-in (21 routers, 16 leaves), 100 Mb/s interior links, a 10 Mb/s
    bottleneck, 5 ms per hop. *)

val parking_lot :
  ?segments:int ->
  ?bottleneck_bps:float ->
  ?access_bps:float ->
  ?delay:float ->
  make_qdisc:(bandwidth_bps:float -> Qdisc.t) ->
  Sim.t ->
  scale
(** The multi-bottleneck parking lot: [segments + 1] routers in path
    order, and every forward link between neighbours a bottleneck segment
    of the same capacity, so cross-traffic entering mid-chain congests
    segments independently.  A sink host hangs off each router past the
    first, and the destination off the last; [s_ingress] is every router
    but the last.  Defaults: 3 segments at 10 Mb/s, 100 Mb/s host access
    links, 5 ms per hop. *)

val power_law :
  ?routers:int ->
  ?edges_per_node:int ->
  ?link_bps:float ->
  ?bottleneck_bps:float ->
  ?delay:float ->
  seed:int ->
  make_qdisc:(bandwidth_bps:float -> Qdisc.t) ->
  Sim.t ->
  scale
(** An AS-like graph grown by preferential attachment (Barabasi-Albert),
    so router degrees follow a power law; the destination hangs off the
    emergent highest-degree router, and that link is the bottleneck.
    Every router is an ingress.  Deterministic under [seed].  Defaults:
    64 routers, 2 edges per new node, 100 Mb/s interior links, a 10 Mb/s
    bottleneck, 5 ms per hop. *)
