(** SIFF router behaviour, as the TVA paper models it for comparison
    (Sec. 2 and 5):

    - every router stamps explorer (EXP) packets with a short marking —
      {!Wire.Siff_marking.bits_per_router} bits derived from a rotating
      secret and the packet's addresses;
    - EXP packets and legacy traffic share the {e low} priority class
      (SIFF's central weakness: request floods and data floods hit the
      same queue);
    - data (DTA) packets whose marking verifies go to the high-priority
      class; DTA packets that fail verification are dropped;
    - routers keep no per-flow state, so there is no byte limit, no
      per-destination balancing, and revocation only happens when the
      router secret rotates (every [rotation_period] seconds; Fig. 11 uses
      3 s).  A marking is accepted for the current or previous secret
      epoch.

    Markings are cached per flow and epoch: a direct-mapped memo of
    {!Crypto.Mac_memo.size} entries, keyed by (src, dst, epoch), holds the
    marking this router computed, so a flow's packets after its first in
    an epoch compute no MAC.  The memo is a pure-function cache, not
    protocol state: a hit returns exactly the bits the MAC gives. *)

type t

val create :
  ?rotation_period:float ->
  ?obs:Obs.Counters.t ->
  secret_master:string ->
  router_id:int ->
  sim:Sim.t ->
  unit ->
  t
(** [obs] (default {!Obs.Counters.nop}) is where the router counts:
    [Packets_in] for every packet it handles, and each dropped DTA packet
    as [Siff_no_marking] (no marking for this router) or
    [Siff_bad_marking] (a marking that fails for the current and previous
    epoch).  The two drops are the packets in minus those forwarded. *)

val default_rotation_period : float
(** 128 s, matching TVA's secret rotation for the non-Fig.-11 scenarios. *)

val marking_bits : t -> now:float -> src:Wire.Addr.t -> dst:Wire.Addr.t -> int
(** The marking this router would stamp right now (exposed for tests and
    the brute-force ablation). *)

val handler : t -> Net.handler
(** Stamps EXP packets, verifies DTA packets (dropping failures), forwards
    the rest. *)

val make_qdisc : bandwidth_bps:float -> Qdisc.t
(** The two-class priority scheduler: verified DTA above EXP + legacy. *)
