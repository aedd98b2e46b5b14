(** Aggregate attacker: one event source standing in for [n] identical
    CBR flood members.

    Every member draws from a private {!Rng.Bank} lane (bit-identical to
    [Rng.lane ~seed i]) in exactly the order a real {!Agents.Flooder}
    would — one start phase at creation, one +-5% jitter per packet — so
    the emitted [(due, member)] stream is equal to [n] real flooders given
    the same lanes.  The aggregate-equivalence property tests pin this.

    Per-member cost in [Coalesced] mode is three words (a deadline, a heap
    slot, and a bank lane) and exactly one simulator event is pending per
    swarm, so a million-member botnet neither bloats the GC heap nor the
    pending-event queue (DESIGN.md section 13). *)

type t

type mode =
  | Coalesced
      (** Member deadlines in an unboxed float array under a member-index
          min-heap (ties fire the lower member id first); one simulator
          event pending per swarm. *)
  | Independent
      (** One simulator timer per member — same stream, maximal scheduler
          load.  The scheduler-stress leg of e2e's [scale_100k]. *)

val mode_of_string : string -> (mode, string) result
(** ["coalesced"] or ["independent"]. *)

val mode_to_string : mode -> string

val start :
  sim:Sim.t ->
  n:int ->
  seed:int ->
  rate_bps:float ->
  ?pkt_bytes:int ->
  ?start_at:float ->
  ?stop_at:float ->
  ?mode:mode ->
  emit:(member:int -> due:float -> unit) ->
  unit ->
  t
(** Start [n] members, each a CBR source of [pkt_bytes] (default 1000)
    packets at [rate_bps] {e per member}, active from [start_at] (default
    0) until [stop_at] (default forever; a member whose deadline lands at
    or past it retires without sending, like a real flooder).  [emit] is
    called once per packet with the member index and its due time.
    [seed] names the bank: member [i] reproduces a flooder driven by
    [Rng.lane ~seed i]. *)

val members : t -> int
val live_members : t -> int
(** Members that have not yet retired at [stop_at]. *)

val packets_sent : t -> int
