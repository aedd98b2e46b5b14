(* The net-event bridge: subscribes to [Net.set_trace] and turns the
   forwarding plane's events into per-node counter increments and trace
   records.  Routers and hosts count their own verdicts; this
   bridge covers what only the network layer sees — queue drops (classified
   by packet class, mirroring the tri-class scheduler), routing failures,
   transmissions and deliveries. *)

(* Which per-class drop counter a dropped packet lands on.  A TVA shim
   classifies as the tri-class qdisc does (demoted -> legacy; else by shim
   kind); a SIFF EXP packet is a request and a SIFF DTA packet a regular
   one, as is any packet with a NetFence header; the rest are legacy. *)
let drop_event (p : Wire.Packet.t) =
  match p.Wire.Packet.shim with
  | Some shim when shim.Wire.Cap_shim.demoted -> Event.Queue_drop_legacy
  | Some { Wire.Cap_shim.kind = Wire.Cap_shim.Request _; _ } -> Event.Queue_drop_request
  | Some { Wire.Cap_shim.kind = Wire.Cap_shim.Regular _; _ } -> Event.Queue_drop_regular
  | None -> (
      match (p.Wire.Packet.siff, p.Wire.Packet.nf) with
      | Some { Wire.Siff_marking.flavor = Wire.Siff_marking.Exp; _ }, _ -> Event.Queue_drop_request
      | Some { Wire.Siff_marking.flavor = Wire.Siff_marking.Dta; _ }, _ | None, Some _ ->
          Event.Queue_drop_regular
      | None, None -> Event.Queue_drop_legacy)

(* The record function is chosen once: with the trace off an event only
   bumps a counter, and the record's arguments (clock, node id, address
   ints, packet size) are never computed.  Neither path allocates; the
   trace-off one is the cheaper by about 10% of fig8_stats wall time. *)
let install ?(trace = Trace.nop) ~counters_for net =
  let record =
    if Trace.is_nop trace then fun node event (_ : Wire.Packet.t) ->
      Counters.incr (counters_for node) event
    else fun node event (p : Wire.Packet.t) ->
      Counters.incr (counters_for node) event;
      Trace.record trace ~time:(Net.now net) ~node:(Net.node_id node) ~event
        ~src:(Wire.Addr.to_int p.Wire.Packet.src)
        ~dst:(Wire.Addr.to_int p.Wire.Packet.dst)
        ~size:(Wire.Packet.size p)
  in
  Net.set_trace net
    (Some
       (function
         | Net.Queue_drop (link, p) -> record (Net.link_src link) (drop_event p) p
         | Net.Hops_exceeded (node, p) -> record node Event.Hops_exceeded p
         | Net.No_route (node, p) -> record node Event.No_route p
         | Net.Transmit (link, p) -> record (Net.link_src link) Event.Transmitted p
         | Net.Deliver (node, p) -> record node Event.Delivered p
         | Net.Link_fault (link, p) -> record (Net.link_src link) Event.Fault_injected p))
