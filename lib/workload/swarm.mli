(** Aggregate attacker: one object standing in for [n] identical CBR
    flood members.

    Every member draws from a private {!Rng.Bank} lane (bit-identical to
    [Rng.lane ~seed i]) in exactly the order a real {!Agents.Flooder}
    would — one start phase at creation, one +-5% jitter per packet — so
    the emitted [(due, member)] stream is equal to [n] real flooders given
    the same lanes.  The aggregate-equivalence tests pin this.

    The members are one {!Sim.group}: each costs one source-heap entry
    (a time, a seq and an id) and a 32-byte bank lane, and no closure, so
    a 10^5-member botnet adds nothing per member to the GC's marking load
    (DESIGN.md section 13).  Each member's events carry the keys [n]
    per-member timers would. *)

type t

type mode = Coalesced | Independent
(** Inert: there is one implementation.  Kept only because [bench/e2e]
    sets {!Scale.config}'s [sc_swarm_mode]; neither constructor selects
    anything. *)

val start :
  sim:Sim.t ->
  n:int ->
  seed:int ->
  rate_bps:float ->
  ?pkt_bytes:int ->
  ?start_at:float ->
  ?stop_at:float ->
  emit:(member:int -> due:float -> unit) ->
  unit ->
  t
(** Start [n] members, each a CBR source of [pkt_bytes] (default 1000)
    packets at [rate_bps] {e per member}, active from [start_at] (default
    0) until [stop_at] (default forever; a member whose deadline lands at
    or past it retires without sending, like a real flooder).  [emit] is
    called once per packet with the member index and its due time (the
    current virtual time).  [seed] names the bank: member [i] reproduces
    a flooder driven by [Rng.lane ~seed i]. *)

val live_members : t -> int
(** Members that have not yet retired at [stop_at]. *)

val packets_sent : t -> int
