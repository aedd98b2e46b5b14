(** A rate limiter in front of another qdisc.

    TVA guarantees request packets a small fixed fraction of each link and
    also caps them at that fraction (paper Sec. 3.2, 5% default; the
    simulations use 1%).  The limiter shapes the *service* rate: packets
    stay queued in the inner qdisc and are released only when the bucket
    (a {!Policer.t}) holds enough tokens, with [next_ready] telling the link transmitter
    when to poll again. *)

val create :
  ?name:string ->
  ?mtu:int ->
  rate_bps:float ->
  burst_bytes:int ->
  inner:Qdisc.t ->
  unit ->
  Qdisc.t
(** Raises [Invalid_argument] on nonpositive rate, burst, or mtu.
    [burst_bytes] must cover at least one MTU or full-size packets would
    never be serviceable.  [mtu] (default 1500) bounds the token horizon
    [next_ready] assumes for a not-yet-staged head packet. *)
