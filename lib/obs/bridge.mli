(** Subscribes to the network's event hook ({!Net.set_trace}) and maps
    forwarding-plane events onto the {!Event} taxonomy: queue drops are
    classified per packet class (request / regular / legacy, mirroring the
    tri-class scheduler for TVA; a SIFF EXP packet is a request, a SIFF DTA
    or NetFence-headed packet regular), and routing failures,
    transmissions and deliveries are counted at the node where they
    happen. *)

val drop_event : Wire.Packet.t -> Event.t
(** The per-class drop counter a dropped packet belongs to. *)

val install :
  ?trace:Trace.t -> counters_for:(Net.node -> Counters.t) -> Net.t -> unit
(** Installs the hook (replacing any previous one).  [counters_for] maps a
    node to its counter instance — return {!Counters.nop} for nodes not
    being observed.  Events are also offered to [trace] (default
    {!Trace.nop}). *)
