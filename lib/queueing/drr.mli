(** Deficit round robin fair queueing (Shreedhar & Varghese).

    TVA fair-queues request packets by path identifier and regular packets
    by destination address (paper Sec. 3.2 and 3.9).  DRR gives each active
    class a quantum of bytes per round in O(1) per packet, and its state is
    proportional to the number of active classes — which TVA bounds by the
    tag space / flow-cache size respectively.

    [max_queues] enforces that bound here: packets whose key would create a
    queue beyond the limit share a single overflow queue (FIFO among
    themselves), mirroring the paper's observation that uncached low-rate
    flows effectively receive FIFO service. *)

val create :
  ?name:string ->
  ?quantum:int ->
  ?queue_capacity_bytes:int ->
  ?max_queues:int ->
  classify:(Wire.Packet.t -> int) ->
  unit ->
  Qdisc.t
(** Defaults: quantum 1500 B (one MTU), 64 KB per class queue, 4096 classes.
    Raises [Invalid_argument] on nonpositive parameters. *)

val active_queues : Qdisc.t -> int
(** Number of classes currently backlogged.  Raises [Invalid_argument] if
    the qdisc was not created by this module. *)
