(** Queueing disciplines.

    A qdisc sits between a node's forwarding decision and a link's
    transmitter.  The transmitter calls [dequeue] each time it finishes a
    packet; a qdisc that is nonempty but momentarily unservable (e.g. a
    rate-limited request queue out of tokens) answers {!none} and reports
    via [next_ready] when it should be polled again.

    The type is a concrete variant rather than a record of closures: the
    datapath functions dispatch over [kind] directly, so a composite like
    the TVA link scheduler (strict priority over token bucket over DRR)
    dequeues through one match chain with no indirect calls and — by
    design — no steady-state allocation: "no packet" is the physical sentinel {!none}
    (never a boxed [option]) and "never ready" is [infinity]. *)

type stats = {
  mutable enqueued : int;
  mutable dequeued : int;
  mutable dropped : int;
  mutable bytes_enqueued : int;
  mutable bytes_dequeued : int;
  mutable bytes_dropped : int;
  mutable hwm_packets : int;
      (** Occupancy high-water mark.  Tracked at leaf disciplines (FIFO,
          DRR) where it costs one compare per accepted packet; composite
          levels leave it 0 and report through their children. *)
}

type t = { name : string; stats : stats; kind : kind }

and kind =
  | Fifo of fifo
  | Drr of drr
  | Token_bucket of token_bucket
  | Priority of priority
  | Custom of custom

and fifo = {
  f_capacity_bytes : int;
  f_capacity_packets : int;  (** [max_int] when unbounded *)
  f_ring : Pktring.t;
  mutable f_bytes : int;
}

and drr = {
  d_quantum : int;
  d_capacity : int;  (** per-class byte capacity *)
  d_max_queues : int;
  d_classify : Wire.Packet.t -> int;
  mutable d_slots : drr_class array;
      (** the backlogged classes, open-addressed by key: a power-of-two
          array at most half full, {!drr_vacant} in every empty slot *)
  mutable d_count : int;  (** classes filed in [d_slots] *)
  d_ring : Intring.t;  (** keys awaiting service, round-robin order *)
  mutable d_current : int;
  mutable d_has_current : bool;
  mutable d_packets : int;
  mutable d_bytes : int;
  mutable d_pool : drr_class array;  (** recycled class records *)
  mutable d_pool_len : int;
}

and drr_class = {
  mutable dc_key : int;
  dc_ring : Pktring.t;
  mutable dc_bytes : int;
  mutable dc_deficit : int;
  mutable dc_active : bool;  (** present in the round-robin ring *)
}

and token_bucket = {
  tb_meter : Policer.t;  (** the rate and the tokens *)
  tb_horizon : int;  (** min(burst, mtu) bytes: poll horizon when unstaged *)
  mutable tb_staged : Wire.Packet.t;  (** head awaiting tokens, or {!none} *)
  tb_inner : t;
}

and priority = {
  p_classify : Wire.Packet.t -> int;  (** clamped into [0, classes-1] *)
  p_classes : t array;
}

and custom = {
  c_enqueue : now:float -> Wire.Packet.t -> bool;
  c_dequeue : now:float -> Wire.Packet.t;  (** {!none} when unservable *)
  c_next_ready : now:float -> float;  (** [infinity] when never *)
  c_packet_count : unit -> int;
  c_byte_count : unit -> int;
}

val drr_vacant : drr_class
(** The empty slot of a DRR class table, compared by physical identity. *)

val drr_table : unit -> drr_class array
(** A fresh, empty DRR class table. *)

val none : Wire.Packet.t
(** The "no packet" sentinel (= {!Pktring.nil}), compared by physical
    identity: [dequeue q ~now == Qdisc.none] means nothing was servable. *)

val enqueue : t -> now:float -> Wire.Packet.t -> bool
(** [false] means the packet was dropped (queue full or policy).  Stats are
    accounted at every level of a composite qdisc. *)

val dequeue : t -> now:float -> Wire.Packet.t
(** The next servable packet, or {!none}. *)

val dequeue_opt : t -> now:float -> Wire.Packet.t option
(** Convenience boxing of {!dequeue} for cold callers and tests. *)

val next_ready : t -> now:float -> float
(** Earliest virtual time a packet could become servable (may be [now]),
    or [infinity] when the qdisc is empty.  May be conservative — the
    transmitter re-polls — but never later than actual readiness.
    Inlined: the levels of a composite pass their readiness through a
    per-domain result cell, so none allocates, and a caller that compares
    or computes with the result reads it unboxed. *)

val packet_count : t -> int
val byte_count : t -> int

val iter_nested : t -> (t -> unit) -> unit
(** Visit [t] and every nested qdisc, parent first, children in service
    order.  Lets observability walk a composite's per-level stats and
    residual occupancy without knowing its shape. *)

val make : name:string -> kind -> t

val make_custom :
  ?name:string ->
  enqueue:(now:float -> Wire.Packet.t -> bool) ->
  dequeue:(now:float -> Wire.Packet.t) ->
  next_ready:(now:float -> float) ->
  packet_count:(unit -> int) ->
  byte_count:(unit -> int) ->
  unit ->
  t
(** A discipline defined outside this module (e.g. pushback shapers, test
    doubles).  The callbacks use the sentinel conventions of {!dequeue} and
    {!next_ready}; stats accounting is layered on automatically. *)
