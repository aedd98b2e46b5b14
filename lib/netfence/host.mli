(** NetFence end hosts.

    Every non-legacy packet leaves with a feedback header: the latest
    token the destination echoed back (or an empty header while
    bootstrapping), plus — piggybacked — the echo of whatever the path
    stamped on the peer's packets to us.  Receivers with [auto_reply]
    answer raw packets with a 64-byte reply so one-way senders (floods
    included) still close the feedback loop; that is deliberate, because
    in NetFence fairness comes from policing, not from denying
    feedback. *)

type t

val create : ?auto_reply:bool -> node:Net.node -> unit -> t
(** Attach a host to [node] (which must have an address) and take over its
    packet handler.  [auto_reply] is for destination-side hosts. *)

val addr : t -> Wire.Addr.t
val node : t -> Net.node

val send_segment : t -> dst:Wire.Addr.t -> Wire.Tcp_segment.t -> unit
(** TCP segment with the feedback header attached. *)

val send_raw : t -> dst:Wire.Addr.t -> bytes:int -> unit
(** Raw payload with the feedback header attached. *)

val send_legacy : t -> dst:Wire.Addr.t -> bytes:int -> unit
(** No NetFence header at all: travels the legacy (low-priority)
    channel. *)

val set_segment_handler : t -> (src:Wire.Addr.t -> Wire.Tcp_segment.t -> unit) -> unit
(** Demux for received TCP segments. *)
