(** NetFence routers (Liu et al., SIGCOMM 2010; PAPERS.md).

    One router object plays both NetFence roles, picked per packet:

    - {b access router} for packets arriving over a link whose source node
      is an end host: it validates the congestion-feedback token the
      sender presents, drives a per-sender AIMD rate limiter
      from the feedback, and drops packets that exceed the policed rate —
      so a compromised sender converges to its fair share no matter how
      fast it transmits;
    - {b bottleneck router} on the forward path: it stamps every
      feedback-carrying packet with a fresh MACed token whose action is
      [Decr] when the outgoing regular-channel queue is congested and
      [Incr] otherwise ([Decr] is sticky across hops).

    Packets with no NetFence header are the legacy channel: forwarded
    unpoliced but at strict low priority, so a legacy flood starves itself
    rather than the regular channel (the TVA demotion analogue).

    Tokens are bound to the sender address and an 8-bit timestamp with a
    MAC under [Crypto.Secret] epoch keys, exactly the machinery the TVA
    router uses for pre-capabilities; all routers of a run share one
    [secret_master], modeling NetFence's pairwise inter-AS key agreement
    (DESIGN.md Sec. 16).

    Tokens are cached per flow and epoch key.  Each router keeps
    direct-mapped memos of {!Crypto.Mac_memo.size} entries: minted tokens
    keyed by (sender, timestamp, action, epoch key), validation verdicts
    by (sender, token, epoch key), and the per-sender policing entries by
    sender.  Epoch keys are compared by identity, so {!rotate_secret}
    misses every cached MAC; {!flush_senders} clears the sender entries.
    A hit returns exactly what the MAC would compute, and a rejected token
    still counts as [Nf_token_rejected]. *)

type t

(** AIMD and policing constants, all relative to the access link rate
    where sensible (DESIGN.md Sec. 16 documents the deviations from the
    paper's wide-area constants). *)
type params = {
  control_interval : float;  (** seconds between AIMD rate adjustments *)
  feedback_timeout : float;
      (** a sender still transmitting with no valid feedback for this long
          is treated as if every interval said [Decr] — not presenting
          feedback must never beat presenting it *)
  token_lifetime : int;
      (** seconds (of the 8-bit timestamp clock) a token stays fresh;
          older tokens are ignored, bounding replay *)
  initial_fraction : float;
      (** initial policed rate, as a fraction of the link *)
  incr_fraction : float;
      (** additive increase per interval, as a fraction of the link *)
  decr_factor : float;  (** multiplicative decrease on [Decr] *)
  min_rate_bps : float;  (** floor of the policed rate *)
  burst_bytes : int;  (** policer bucket depth *)
}

val default_params : params

val create :
  ?params:params ->
  ?obs:Obs.Counters.t ->
  secret_master:string ->
  router_id:int ->
  sim:Sim.t ->
  link_bps:float ->
  unit ->
  t
(** A router for one node.  [link_bps] is the bottleneck rate the AIMD
    constants scale from; [secret_master] must be shared by every router
    of the run for cross-router token validation.  [obs] (default
    {!Obs.Counters.nop}) is where the router counts: [Packets_in] for
    every packet {!handler} takes, [Nf_policed] for each packet dropped
    over its sender's policed rate (the only drop, so packets in minus
    [Nf_policed] are forwarded), and [Nf_token_rejected] for each
    presented token {!validate} discards as forged or stale. *)

val handler : t -> Net.handler
(** The node handler: access-side policing for packets arriving from an
    attached host, congestion stamping toward the packet's next link,
    then [Net.forward]. *)

val make_qdisc : bandwidth_bps:float -> Qdisc.t
(** Two-class strict-priority link scheduler: feedback-carrying packets in
    the regular class, headerless legacy traffic below them.  Both classes
    sized like the baseline drop-tail. *)

val mint : t -> now:float -> src:Wire.Addr.t -> Wire.Nf_feedback.action -> Wire.Nf_feedback.token
(** A fresh token binding (sender, this router, timestamp, action) under
    the current epoch secret — what [handler] stamps on the forward
    path.  Exposed for the datapath tests. *)

val validate : t -> now:float -> Wire.Nf_feedback.token -> src:Wire.Addr.t -> Wire.Nf_feedback.action option
(** [Some action] iff the token's MAC verifies for sender [src] under the
    current-or-previous epoch secret and the token is still fresh
    ([token_lifetime]); [None] for forged, stale, or re-bound tokens. *)

val sender_count : t -> int
(** Live per-sender policing entries (one per sender, whichever
    bottleneck its feedback names). *)

val sender_rates : t -> (Wire.Addr.t * float) list
(** Current policed rate per tracked sender, sorted by address — the
    AIMD-convergence observable the tests assert on. *)

val flush_senders : t -> unit
(** Drop all policing state (fault injection: state wipe). *)

val rotate_secret : t -> unit
(** Replace the epoch-secret chain (fault injection: key rotation).  A
    router rotated alone stops agreeing with its peers until senders
    re-acquire fresh tokens. *)
