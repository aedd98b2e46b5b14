(** The fixed-point token meter, with a retunable rate.

    One meter serves two jobs.  The token-bucket qdisc ([Token_bucket])
    shapes: packets queue behind it and the qdisc releases its head when
    {!take} succeeds after a {!refill}.  NetFence's access-router rate
    limiters instead {e police}: {!admit} is a conformance check that
    drops non-conforming packets on the spot, with a fill rate an AIMD
    controller adjusts every control interval.  Tokens are bytes times
    [2{^20}] in an immediate [int], and refills grant whole units
    only, so fractional credit accrues instead of being truncated away. *)

type t

val create : rate_bps:float -> burst_bytes:int -> t
(** Fresh meter, bucket full, last refilled at time 0.  Raises
    [Invalid_argument] on non-positive rate or burst. *)

val refill : t -> now:float -> unit
(** Credit the tokens earned since the last refill, capped at the burst.
    [now] must not go backwards between calls. *)

val take : t -> bytes:int -> bool
(** Debit [bytes] if the bucket holds them ([true]); otherwise leave it as
    it is ([false]).  Does not refill. *)

val ready_at : t -> now:float -> bytes:int -> float
(** The earliest time [bytes] would conform if nothing else is debited:
    [now] when they already do.  Does not refill. *)

val admit : t -> now:float -> bytes:int -> bool
(** {!refill} then {!take}: [true] means the packet conforms (tokens were
    consumed), [false] means it should be dropped. *)

val set_rate : t -> rate_bps:float -> unit
(** Retune the fill rate (AIMD step).  Accumulated tokens are kept; the
    burst cap is fixed at creation.  Raises [Invalid_argument] on a
    non-positive rate. *)

val rate_bps : t -> float
(** The current fill rate in bits per second. *)
