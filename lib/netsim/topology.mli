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

type chain = {
  chain_net : Net.t;
  chain_routers : Net.node array;
  chain_source : Net.node;
  chain_attacker : Net.node;
  chain_destination : Net.node;
}
(** A built linear chain (see {!chain}): routers in path order plus the
    three endpoints hanging off it. *)

val chain_source_addr : Wire.Addr.t
(** Address of the chain's legitimate source. *)

val chain_attacker_addr : Wire.Addr.t
(** Address of the chain's attacker. *)

val chain_destination_addr : Wire.Addr.t
(** Address of the chain's destination. *)

val chain :
  ?hops:int ->
  ?bandwidth_bps:float ->
  ?delay:float ->
  ?attacker_entry:int ->
  make_qdisc:(bandwidth_bps:float -> Qdisc.t) ->
  Sim.t ->
  chain
(** A linear chain of [hops] routers with the source on router 0, the
    destination past the last router, and an attacker joining at router
    [attacker_entry].  Used by the incremental-deployment example: upgrade
    a prefix/suffix of the routers and observe attack localization. *)

(** {1 Scale topologies}

    Generators for the million-sender scale experiments (DESIGN.md
    section 13).  Unlike {!dumbbell} and {!chain} they do {e not} compute
    routes: attach host nodes first (e.g. with {!attach_host}), then run
    {!Net.compute_routes} once, paying the O(V * E) relaxation a single
    time. *)

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

type fanin = {
  fi_net : Net.t;
  fi_routers : Net.node array;
      (** BFS order; the children of router [i] are
          [i * fanout + 1 .. i * fanout + fanout] *)
  fi_leaves : Net.node array;  (** the deepest level — sender attach points *)
  fi_destination : Net.node;
}
(** An ISP-style fan-in tree: edge routers aggregate through [depth]
    levels into one root, [fi_routers.(0)], whose link to the destination
    is the bottleneck. *)

val fanin_destination_addr : Wire.Addr.t

val fanin :
  ?depth:int ->
  ?fanout:int ->
  ?bottleneck_bps:float ->
  ?link_bps:float ->
  ?delay:float ->
  make_qdisc:(bandwidth_bps:float -> Qdisc.t) ->
  Sim.t ->
  fanin
(** Defaults: 3 levels of 4-way fan-in (21 routers, 16 leaves), 100 Mb/s
    interior links, a 10 Mb/s bottleneck, 5 ms per hop. *)

type parking_lot = {
  pl_net : Net.t;
  pl_routers : Net.node array;
      (** [segments + 1] routers in path order; each forward link
          [routers.(i) -> routers.(i+1)] is a bottleneck segment *)
  pl_exits : Net.node array;
      (** a sink host off [routers.(i + 1)]: traffic entering at router [i]
          addressed to exit [i] crosses exactly segment [i] *)
  pl_destination : Net.node;  (** past the last router — the full-path target *)
}
(** The multi-bottleneck parking lot: every segment link has the same
    (bottleneck) capacity, so cross-traffic entering mid-chain congests
    individual segments independently. *)

val parking_exit_addr : int -> Wire.Addr.t
val parking_destination_addr : Wire.Addr.t

val parking_lot :
  ?segments:int ->
  ?bottleneck_bps:float ->
  ?access_bps:float ->
  ?delay:float ->
  make_qdisc:(bandwidth_bps:float -> Qdisc.t) ->
  Sim.t ->
  parking_lot
(** Defaults: 3 segments at 10 Mb/s, 100 Mb/s host access links, 5 ms per
    hop. *)

type power_law = {
  pw_net : Net.t;
  pw_routers : Net.node array;
  pw_destination : Net.node;
      (** host off the core, the highest-degree router; the core ->
          destination link is the bottleneck *)
}
(** An AS-like graph grown by preferential attachment (Barabasi-Albert),
    so router degrees follow a power law; the destination hangs off the
    emergent highest-degree core.  Deterministic under [seed]. *)

val power_law_destination_addr : Wire.Addr.t

val power_law :
  ?routers:int ->
  ?edges_per_node:int ->
  ?link_bps:float ->
  ?bottleneck_bps:float ->
  ?delay:float ->
  seed:int ->
  make_qdisc:(bandwidth_bps:float -> Qdisc.t) ->
  Sim.t ->
  power_law
(** Defaults: 64 routers, 2 edges per new node, 100 Mb/s interior links,
    a 10 Mb/s bottleneck, 5 ms per hop. *)
