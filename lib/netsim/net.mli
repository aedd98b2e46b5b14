(** The packet-level network: nodes joined by unidirectional links, each
    link owning a qdisc and a store-and-forward transmitter.

    A link serializes one packet at a time at its bandwidth, then the
    packet propagates for the link delay (so several packets ride the wire
    concurrently).  When a link's qdisc is nonempty but unservable (a rate
    limiter out of tokens), the transmitter re-polls at the qdisc's
    [next_ready] time.

    A hop schedules no closure.  Each link allocates its tx-done, deliver
    and poll actions once, when it first has a packet to send.  The
    packets propagating on it wait in a per-link FIFO ring, and each has
    one delivery on the network's constant-delay {!Sim.lane} for the
    link's delay (one lane per distinct delay), which fires it under the
    key [Sim.schedule ~delay] would give.  Likewise each transmit
    completes on the network's lane for its serialization time, [size * 8
    / bandwidth] (one lane per distinct time).  Lanes are made on first
    use, so building a topology makes none.  Events fire in exactly the
    order one event per packet would give.  A [Fault_delay] or
    [Fault_dup] packet gets its own event.  With no trace hook set, no
    {!event} value is built (DESIGN.md §9.1). *)

type t
(** A network: the node/link tables plus the simulator driving them. *)

type node
(** A host or router; owns a packet handler and a next-hop table. *)

type link
(** One unidirectional link: qdisc, transmitter state, and fault hooks. *)

type handler = node -> in_link:link option -> Wire.Packet.t -> unit
(** Invoked when a packet arrives at a node ([in_link = None] only for
    locally injected packets). *)

type fault_action =
  | Fault_pass  (** deliver normally *)
  | Fault_lose  (** discard after serialization (loss or corruption) *)
  | Fault_dup  (** deliver the packet and an independent copy of it *)
  | Fault_delay of float
      (** deliver after [link delay + extra] seconds — later packets can
          overtake it, which is how reordering is modeled *)

(** What a per-link fault hook may decide for one transmitted packet.
    The decision is made after the packet has been dequeued and charged
    serialization time: a lost packet still occupied the wire. *)

type event =
  | Queue_drop of link * Wire.Packet.t
  | Hops_exceeded of node * Wire.Packet.t
  | No_route of node * Wire.Packet.t
  | Transmit of link * Wire.Packet.t
  | Deliver of node * Wire.Packet.t
  | Link_fault of link * Wire.Packet.t
      (** a fault hook returned a non-pass action for this packet *)

(** Observable forwarding events, reported through {!set_trace}. *)

val create : Sim.t -> t
(** An empty network scheduled on the given simulator. *)

val now : t -> float
(** Current virtual time of the network's simulator. *)

val set_trace : t -> (event -> unit) option -> unit
(** A global observation hook for tests and debugging; [None] disables. *)

(** {1 Building the network} *)

val add_node : ?addr:Wire.Addr.t -> name:string -> t -> handler -> node
(** Addresses must be unique across the network; routers typically have
    none.  Raises [Invalid_argument] on a duplicate address. *)

val set_handler : node -> handler -> unit
(** Replace the node's packet handler (schemes install theirs here). *)

val node_sim : node -> Sim.t
(** The simulator the node's network runs on. *)

val node_name : node -> string
(** The name given at {!add_node}; unique is conventional, not enforced. *)

val node_addr : node -> Wire.Addr.t option
(** The node's address, or [None] for unaddressed routers. *)

val node_id : node -> int
(** Dense creation-order index, usable as an array key. *)

val link_oneway :
  t -> src:node -> dst:node -> bandwidth_bps:float -> delay:float -> qdisc:Qdisc.t -> link
(** Raises [Invalid_argument] on nonpositive bandwidth or a negative or
    NaN delay. *)

val duplex :
  t ->
  node ->
  node ->
  bandwidth_bps:float ->
  delay:float ->
  qdisc:(unit -> Qdisc.t) ->
  link * link
(** Two symmetric one-way links; [qdisc] is called once per direction. *)

val compute_routes : t -> unit
(** Populates every node's next-hop table with shortest paths (hop count,
    ties by link creation order) towards every addressed node.  Call after
    the topology is complete; may be called again after changes.  Only
    nodes without exactly one out-link are searched; a single-homed node
    copies its neighbour's table, which gives the same routes. *)

(** {1 Moving packets} *)

val originate : node -> Wire.Packet.t -> unit
(** Inject a packet at its source host: routes and transmits it. *)

val forward : node -> Wire.Packet.t -> unit
(** Route the packet from this node towards [packet.dst], charging one hop.
    Drops (with a trace event) when hops run out or no route exists. *)

val forward_on : node -> link -> Wire.Packet.t -> unit
(** Forward on an explicit link, bypassing the route lookup. *)

val route_for : node -> Wire.Addr.t -> link option
(** The node's current next hop towards an address, if any.  Allocates
    nothing: every route through a link shares one [Some link]. *)

val min_poll_delay : float
(** The minimum self-poll backoff (in virtual seconds) a link transmitter
    waits when a qdisc claims readiness at the current instant but refuses
    to dequeue — e.g. a token bucket momentarily short of one packet's
    tokens.  Without this floor the transmitter would re-poll at the same
    virtual time forever and the event loop would spin. *)

(** {1 Introspection} *)

val links_into : node -> link list
(** All links whose destination is this node (for pushback's per-upstream
    rate limiting). *)

val links_out_of : node -> link list
(** All links whose source is this node. *)

val link_id : link -> int
(** Dense creation-order index, usable as an array key. *)

val link_src : link -> node
(** The transmitting end. *)

val link_dst : link -> node
(** The receiving end. *)

val link_qdisc : link -> Qdisc.t
(** The queue feeding this link's transmitter. *)

val link_bandwidth : link -> float
(** Serialization rate in bits per second. *)

val link_tx_packets : link -> int
(** Packets fully serialized onto the wire so far (faulted ones included). *)

val link_tx_bytes : link -> int
(** Bytes fully serialized onto the wire so far. *)

(** {1 Fault hooks}

    The injection points the fault layer ({!module:Faults}) drives; with no
    hook installed and every link up, the transmitter's code path is the
    exact pre-fault one (DESIGN.md §11). *)

val link_set_fault : link -> (Wire.Packet.t -> fault_action) option -> unit
(** A per-packet fault decision consulted once per transmission, between
    dequeue and propagation.  [None] (the default) disables.  The hook must
    be deterministic given the simulation state — draw randomness from a
    dedicated {!Rng.t} stream, never from wall-clock sources. *)

val link_set_up : link -> bool -> unit
(** Administratively raise or fail the link.  While down, the transmitter
    stalls (the qdisc keeps queueing and tail-drops when full) but a packet
    already serializing finishes, and packets already propagating are
    delivered.  Raising a downed link restarts service immediately. *)

val nodes : t -> node list
(** Every node in the network, in creation order. *)

val links : t -> link list
(** Every link in the network, in creation order. *)

val find_node_by_addr : t -> Wire.Addr.t -> node option
(** The unique node owning this address, if one was registered. *)
