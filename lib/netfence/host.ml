(* Per-destination feedback the sender presents, and per-source stamped
   tokens waiting to be echoed back — the host side of the NetFence loop,
   shaped like [Siff.Host]'s marking echo. *)

type t = {
  node : Net.node;
  sim : Sim.t;
  addr : Wire.Addr.t;
  auto_reply : bool;
  feedback : Wire.Nf_feedback.token Wire.Addr.Tbl.t; (* dst -> token to present *)
  pending_return : Wire.Nf_feedback.token Wire.Addr.Tbl.t; (* src -> token to echo *)
  mutable on_segment : src:Wire.Addr.t -> Wire.Tcp_segment.t -> unit;
}

let addr t = t.addr
let node t = t.node
let set_segment_handler t f = t.on_segment <- f

let make_header t ~dst =
  let nf =
    match Wire.Addr.Tbl.find_opt t.feedback dst with
    | Some tok -> Wire.Nf_feedback.with_token tok
    | None -> Wire.Nf_feedback.empty ()
  in
  (match Wire.Addr.Tbl.find_opt t.pending_return dst with
  | Some tok ->
      Wire.Addr.Tbl.remove t.pending_return dst;
      nf.Wire.Nf_feedback.returned <- Some tok
  | None -> ());
  nf

let send_body t ~dst body =
  let nf = make_header t ~dst in
  Net.originate t.node (Wire.Packet.make ~nf ~src:t.addr ~dst body)

let send_segment t ~dst seg = send_body t ~dst (Wire.Packet.Tcp seg)
let send_raw t ~dst ~bytes = send_body t ~dst (Wire.Packet.Raw bytes)

let send_legacy t ~dst ~bytes =
  let p = Wire.Packet.make ~src:t.addr ~dst (Wire.Packet.Raw bytes) in
  Net.originate t.node p

let handle_packet t _node ~in_link:_ (p : Wire.Packet.t) =
  if Wire.Addr.equal p.Wire.Packet.dst t.addr then begin
    let src = p.Wire.Packet.src in
    (match p.Wire.Packet.nf with
    | None -> ()
    | Some nf ->
        (* What the path stamped on this packet goes back to its sender on
           our next packet (or the auto reply); what the peer echoed to us
           becomes the token we present from now on.  Last writer wins —
           the freshest feedback is the binding one. *)
        (match nf.Wire.Nf_feedback.stamped with
        | Some tok -> Wire.Addr.Tbl.replace t.pending_return src tok
        | None -> ());
        (match nf.Wire.Nf_feedback.returned with
        | Some tok -> Wire.Addr.Tbl.replace t.feedback src tok
        | None -> ()));
    (match p.Wire.Packet.body with
    | Wire.Packet.Tcp seg -> t.on_segment ~src seg
    | Wire.Packet.Raw _ -> ());
    if t.auto_reply && Wire.Addr.Tbl.mem t.pending_return src then
      send_body t ~dst:src (Wire.Packet.Raw 64)
  end

let create ?(auto_reply = false) ~node () =
  let addr =
    match Net.node_addr node with
    | Some a -> a
    | None -> invalid_arg "Netfence.Host.create: node has no address"
  in
  let t =
    {
      node;
      sim = Net.node_sim node;
      addr;
      auto_reply;
      feedback = Wire.Addr.Tbl.create 16;
      pending_return = Wire.Addr.Tbl.create 16;
      on_segment = (fun ~src:_ _ -> ());
    }
  in
  Net.set_handler node (handle_packet t);
  t
