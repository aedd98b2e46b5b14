(** Bounded router state for byte-limited capabilities (paper Sec. 3.6).

    A router keeps a cache record only for flows that send faster than
    [N/T].  Each record carries a time-to-live measured in "time-equivalent
    bytes": it starts at [L*T/N] for the first packet and grows by the same
    conversion for every charged packet.  A record whose ttl has run out may
    be reclaimed at any moment, and the paper proves that no matter when
    reclamation happens a capability can never ship more than [2N] bytes
    (at most [N] across all cached intervals plus [N] in a final uncached
    burst) — the property test in the test suite exercises exactly this
    bound under adversarial eviction.

    Capacity is fixed at creation ([C/(N/T)_min] records for a link of
    capacity [C]); inserting into a full cache reclaims expired records and
    otherwise fails, so attackers cannot exhaust router memory. *)

type t

type entry = {
  e_src : Wire.Addr.t;
  e_dst : Wire.Addr.t;
  mutable nonce : int; (* the grant's 48-bit nonce *)
  mutable n_bytes : int; (* the grant's N, in bytes *)
  mutable t_sec : int;
  mutable cap_ts : int; (* router timestamp inside the validated capability *)
  mutable bytes_used : int;
  mutable slot : int; (* index of this record in the table *)
}
(** All-scalar on purpose: the ttl expiry lives in the table's unboxed
    float store at index [slot], not in the record — a [mutable float]
    in a mixed record is boxed, and updating it costs 2 minor words per
    charged packet. *)

val create : ?obs:Obs.Counters.t -> max_entries:int -> unit -> t
(** Raises [Invalid_argument] on a nonpositive bound.  [obs] (default
    {!Obs.Counters.nop}) receives a [Cache_evicted] increment per
    reclaimed record.  Large caches start small and grow on demand. *)

val size : t -> int
val capacity : t -> int

val evictions : t -> int
(** Records reclaimed over the cache's lifetime — ttl run out or
    capability expired, via {!sweep} or the amortized insert-path scan.
    Explicit {!remove} is not an eviction. *)

val hwm : t -> int
(** Live-record high-water mark, for checking the Sec. 3.6 state bound
    [records <= C/(N/T)_min] empirically. *)

val absent : entry
(** The miss sentinel {!find} returns; test for it with [==].  It is never
    stored in a cache, and {!charge}, {!renew} and {!ttl_remaining} raise
    [Invalid_argument] on it without changing it. *)

val find : t -> src:Wire.Addr.t -> dst:Wire.Addr.t -> entry
(** The flow's record, or {!absent}.  Allocates nothing. *)

type insert_result =
  | Inserted of entry
  | Cache_full  (** no reclaimable record: the packet is demoted, state unchanged *)
  | Over_limit  (** the first packet alone exceeds N *)

val insert :
  t ->
  now:float ->
  src:Wire.Addr.t ->
  dst:Wire.Addr.t ->
  nonce:int ->
  n_kb:int ->
  t_sec:int ->
  cap_ts:int ->
  packet_bytes:int ->
  insert_result
(** Creates state for a newly validated capability and charges the packet
    that carried it. *)

type charge_result =
  | Charged
  | Byte_limit  (** would exceed N: demote, no state change *)

val charge : t -> entry -> now:float -> bytes:int -> charge_result
(** The table parameter locates the SoA ttl store the entry charges into
    ([entry] must belong to [t]).  Raises [Invalid_argument] on
    {!absent}. *)

val renew :
  t -> entry -> now:float -> nonce:int -> n_kb:int -> t_sec:int -> cap_ts:int ->
  packet_bytes:int -> charge_result
(** Replace the entry's capability with a freshly validated one (first
    packet of a renewed grant): byte accounting restarts for the new N.
    Raises [Invalid_argument] on {!absent}. *)

val remove : t -> entry -> unit

val ttl_remaining : t -> entry -> now:float -> float
(** Negative values mean the record is reclaimable.  Raises
    [Invalid_argument] on {!absent}. *)

val sweep : t -> now:float -> int
(** Reclaim every record whose ttl has run out or whose capability has
    expired on the modulo clock; returns how many were reclaimed. *)

val iter : t -> (entry -> unit) -> unit

val clear : t -> unit
(** Drop every record (router restart / route change, Sec. 3.8). *)
