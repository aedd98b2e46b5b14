(** The fault-injection specification: taxonomy, textual grammar, parser
    and canonical printer (DESIGN.md §11).

    A spec is a semicolon-separated list of clauses, each
    [kind:target\[:key=value,...\]]:

    {v
    loss:bottleneck:p=0.01          Bernoulli packet loss
    burst:bottleneck:pgb=0.02,pbg=0.3,pbad=0.5
                                    Gilbert-Elliott burst loss
    corrupt:bottleneck:p=0.005      corruption (lost after serialization,
                                    counted separately from loss)
    dup:access:p=0.01               duplication
    reorder:rbottleneck:p=0.02,delay=0.05
                                    reordering via extra propagation delay
    down:bottleneck:at=5,for=2      link failure window
    flap:bottleneck:at=5,until=30,period=4,down=1
                                    periodic down/up flapping
    wipe:left:at=10                 flow-cache wipe (models a route change:
                                    packets arrive at a router with no
                                    state for them, Sec. 3.8)
    rotate:right:at=10,every=20     router secret rotation (desync)
    restart:left:at=10,for=0.5      full restart: cache wipe + secret
                                    rotation + attached links down
    v}

    Link targets are [bottleneck], [rbottleneck] (the reverse direction),
    [access] (every access link) or [all]; router targets are [left],
    [right] or [all].  Whitespace around tokens is ignored.  Probabilities
    are per transmitted packet; times are virtual seconds. *)

(** Which links a link-level clause applies to. *)
type link_target =
  | Bottleneck  (** the congested direction *)
  | Bottleneck_rev
  | Access_links  (** every non-bottleneck link *)
  | All_links

(** Which routers a control clause applies to. *)
type router_target = Left | Right | All_routers

type target = Link of link_target | Router of router_target

type kind =
  | Loss of { p : float }  (** independent per-packet loss *)
  | Burst of { p_gb : float; p_bg : float; p_bad : float; p_good : float }
      (** Gilbert-Elliott: per-packet transition probabilities
          good->bad [p_gb] and bad->good [p_bg], loss probability [p_bad]
          in the bad state and [p_good] (default 0) in the good state *)
  | Corrupt of { p : float }
      (** the packet is destroyed after serialization — links have no
          checksum to salvage it, so corruption behaves as loss but is
          injected and counted as its own class *)
  | Dup of { p : float }  (** the packet is delivered twice *)
  | Reorder of { p : float; delay : float }
      (** selected packets propagate [delay] extra seconds, letting later
          packets overtake them *)
  | Down of { at : float; dur : float }  (** one failure window *)
  | Flap of { at : float; until : float; period : float; down : float }
      (** from [at] until [until], every [period] seconds the link goes
          down for [down] seconds *)
  | Wipe of { at : float; every : float option }
      (** flow-cache wipe, optionally repeating *)
  | Rotate of { at : float; every : float option }
      (** secret rotation without warning — outstanding capabilities stop
          validating at this router *)
  | Restart of { at : float; dur : float }
      (** cache wipe + secret rotation + all attached links down [dur] s *)

type clause = { kind : kind; target : target }

type t = clause list

val parse : string -> (t, string) result
(** Parses the grammar above.  [Error] names the offending clause and why:
    unknown kind, a target incompatible with the kind (link kinds take
    link targets, control kinds router targets), an unknown or unparsable
    parameter, a missing required one, or a probability outside [0, 1]. *)

val to_string : t -> string
(** Canonical form; [parse (to_string s)] recovers [s] exactly. *)

val clause_to_string : clause -> string
