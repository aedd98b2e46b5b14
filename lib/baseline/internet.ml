let make_qdisc ~bandwidth_bps =
  Droptail.create ~name:"internet-fifo"
    ~capacity_packets:(Droptail.default_capacity_packets ~bandwidth_bps ~delay:0.06)
    ~capacity_bytes:(Droptail.default_capacity ~bandwidth_bps ~delay:0.06)
    ()

let router_handler node ~in_link:_ p = Net.forward node p

module Host = struct
  type t = {
    node : Net.node;
    sim : Sim.t;
    addr : Wire.Addr.t;
    mutable on_segment : src:Wire.Addr.t -> Wire.Tcp_segment.t -> unit;
  }

  let addr t = t.addr
  let set_segment_handler t f = t.on_segment <- f

  let send_segment t ~dst seg =
    Net.originate t.node
      (Wire.Packet.make ~src:t.addr ~dst (Wire.Packet.Tcp seg))

  let send_raw t ~dst ~bytes =
    Net.originate t.node
      (Wire.Packet.make ~src:t.addr ~dst (Wire.Packet.Raw bytes))

  let handle t _node ~in_link:_ (p : Wire.Packet.t) =
    if Wire.Addr.equal p.Wire.Packet.dst t.addr then begin
      match p.Wire.Packet.body with
      | Wire.Packet.Tcp seg -> t.on_segment ~src:p.Wire.Packet.src seg
      | Wire.Packet.Raw _ -> ()
    end

  let create ~node =
    let addr =
      match Net.node_addr node with
      | Some a -> a
      | None -> invalid_arg "Internet.Host.create: node has no address"
    in
    let t = { node; sim = Net.node_sim node; addr; on_segment = (fun ~src:_ _ -> ()) } in
    Net.set_handler node (handle t);
    t
end
