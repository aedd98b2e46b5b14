(** Destination authorization policies (paper Sec. 3.3 and 5.4).

    A policy decides, per incoming request, whether to return capabilities
    and with what fine-grained budget (N KB within T seconds).  The paper
    argues two simple policies suffice as extremes:

    - a {e client} accepts requests only from hosts it has itself
      contacted (firewall/NAT-like behaviour);
    - a {e public server} grants every first request a default budget and
      stops renewing senders that misbehave, bounding the damage of a bad
      authorization to one budget. *)

type decision =
  | Granted of { n_kb : int; t_sec : int }
  | Refused

type t

val decide : t -> now:float -> src:Wire.Addr.t -> renewal:bool -> decision

val note_traffic : t -> now:float -> src:Wire.Addr.t -> bytes:int -> demoted:bool -> unit
(** Hosts call this for every arriving data packet, so detectors can watch
    per-source behaviour. *)

val note_outgoing_request : t -> now:float -> dst:Wire.Addr.t -> unit
(** Hosts call this when they request capabilities from [dst], with a
    fresh request or a renewal (the client policy keys on it). *)

val make :
  ?note_traffic:(now:float -> src:Wire.Addr.t -> bytes:int -> demoted:bool -> unit) ->
  ?note_outgoing_request:(now:float -> dst:Wire.Addr.t -> unit) ->
  decide:(now:float -> src:Wire.Addr.t -> renewal:bool -> decision) ->
  unit ->
  t
(** Build a custom policy (e.g. CAPTCHA- or cookie-informed, per the
    paper's suggestions). *)

val allow_all : ?n_kb:int -> ?t_sec:int -> unit -> t
(** Grants everything, always — what a colluder runs, and a useful default
    for unattacked experiments.  Defaults: the {!Params.default} budget. *)

val refuse_all : unit -> t

val client : ?n_kb:int -> ?t_sec:int -> ?window:float -> unit -> t
(** Accepts a request from [src] only if we sent a request to [src] within
    the last [window] seconds (default 60 s). *)

val server :
  ?n_kb:int ->
  ?t_sec:int ->
  ?suspicious:(Wire.Addr.t -> bool) ->
  ?flood_threshold_bps:float ->
  unit ->
  t
(** The public-server policy: grant every source's first request; refuse
    further grants and renewals to sources that have been blacklisted.
    Blacklisting happens when (a) the [suspicious] oracle flags a source
    that has already consumed one grant (the paper's Sec. 5.4 setup — the
    destination recognizes misbehaviour but only after authorizing once),
    or (b) a source's measured arrival rate exceeds [flood_threshold_bps]
    (default: disabled). *)

val blacklist : t -> Wire.Addr.t -> unit
(** Manually blacklist a source on a [server] policy (no-op for others). *)

val is_blacklisted : t -> Wire.Addr.t -> bool
