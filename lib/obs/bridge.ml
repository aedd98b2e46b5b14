(* The net-event bridge: subscribes to [Net.set_trace] and turns the
   forwarding plane's events into per-node counter increments and trace
   records.  The TVA routers count their own processing-path events; this
   bridge covers what only the network layer sees — queue drops (classified
   by packet class, mirroring the tri-class scheduler), routing failures,
   transmissions and deliveries. *)

(* Which per-class drop counter a dropped packet lands on: the same
   classification the tri-class qdisc applies (shimless or demoted ->
   legacy; else by shim kind). *)
let drop_event (p : Wire.Packet.t) =
  match p.Wire.Packet.shim with
  | None -> Event.Queue_drop_legacy
  | Some shim when shim.Wire.Cap_shim.demoted -> Event.Queue_drop_legacy
  | Some shim -> begin
      match shim.Wire.Cap_shim.kind with
      | Wire.Cap_shim.Request _ -> Event.Queue_drop_request
      | Wire.Cap_shim.Regular _ -> Event.Queue_drop_regular
    end

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

let remove net = Net.set_trace net None
