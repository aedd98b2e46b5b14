(** NetFence congestion-feedback header (Liu et al., PAPERS.md).

    NetFence replaces per-destination capabilities with closed-loop
    congestion policing: every data packet carries an unforgeable feedback
    token [(router, timestamp, action, MAC)].  A bottleneck router stamps
    [Decr] when congested (else [Incr]) on the forward path, the receiver
    echoes the stamped token back, and the sender must present the echoed
    token on its next packets — the access router verifies the MAC and
    drives a per-sender AIMD rate limiter from the action.  A compromised
    sender cannot forge an [Incr] token, so ignoring congestion only gets
    its traffic policed down to its fair share.

    The header has three slots so one record covers the whole loop:
    [token] is what the sender presents, [stamped] is what routers wrote on
    this packet's own path, and [returned] carries a stamped token back on
    a reply. *)

type action =
  | Incr  (** path uncongested: additive-increase the sender's rate *)
  | Decr  (** congestion seen: multiplicative-decrease the sender's rate *)

type token = {
  nf_router : int;  (** id of the stamping (bottleneck) router *)
  nf_ts : int;  (** epoch timestamp, same 8-bit clock as [Crypto.Secret] *)
  nf_action : action;
  nf_mac : int64;  (** keyed MAC over (src, router, ts, action) *)
}

type t = {
  mutable token : token option;  (** feedback the sender presents *)
  mutable stamped : token option;  (** feedback routers wrote on this packet *)
  mutable returned : token option;  (** stamped feedback echoed on a reply *)
}

val empty : unit -> t
(** Header with no token — a sender bootstrapping before any feedback. *)

val with_token : token -> t
(** Header presenting [token] (the sender's latest echoed feedback). *)

val copy : t -> t
(** Independent mutable slots; tokens themselves are immutable. *)

val stamp : t -> token -> unit
(** Write [token] into the [stamped] slot, unless a [Decr] is already
    there: congestion feedback is monotone, a downstream [Incr] never
    overwrites an upstream [Decr]. *)

val action_bit : action -> int
(** 0 for [Incr], 1 for [Decr] — the bit that goes under the MAC. *)

val wire_size : t -> int
(** 4 header bytes plus 12 per occupied slot, so carrying feedback costs
    link time the same way capability shims do. *)

val pp_action : Format.formatter -> action -> unit
