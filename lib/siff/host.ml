type dst_state = { mutable markings : (int * int) list option; mutable obtained_at : float }

type t = {
  rotation : float;
  policy : Tva.Policy.t;
  node : Net.node;
  sim : Sim.t;
  addr : Wire.Addr.t;
  auto_reply : bool;
  dests : dst_state Wire.Addr.Tbl.t;
  pending_return : (int * int) list Wire.Addr.Tbl.t;
  mutable on_segment : src:Wire.Addr.t -> Wire.Tcp_segment.t -> unit;
}

let addr t = t.addr
let node t = t.node
let set_segment_handler t f = t.on_segment <- f

let dst_state t dst =
  match Wire.Addr.Tbl.find_opt t.dests dst with
  | Some s -> s
  | None ->
      let s = { markings = None; obtained_at = 0. } in
      Wire.Addr.Tbl.add t.dests dst s;
      s

let usable t s ~now =
  match s.markings with
  | None -> None
  | Some m -> if now -. s.obtained_at <= t.rotation then Some m else None

let markings_for t ~dst =
  let s = dst_state t dst in
  usable t s ~now:(Sim.now t.sim)

let make_shim t ~dst =
  let now = Sim.now t.sim in
  let s = dst_state t dst in
  let shim =
    match usable t s ~now with
    | Some markings -> Wire.Siff_marking.dta ~markings
    | None ->
        Tva.Policy.note_outgoing_request t.policy ~now ~dst;
        Wire.Siff_marking.exp_packet ()
  in
  (match Wire.Addr.Tbl.find_opt t.pending_return dst with
  | Some markings ->
      Wire.Addr.Tbl.remove t.pending_return dst;
      shim.Wire.Siff_marking.returned <- Some markings
  | None -> ());
  shim

let send_body t ~dst body =
  let siff = make_shim t ~dst in
  let p = Wire.Packet.make ~siff ~src:t.addr ~dst body in
  Net.originate t.node p

(* SIFF handshakes are per connection: SYN and SYN/ACK packets are always
   explorers (the TVA paper's point of comparison — SIFF "treats capacity
   requests as legacy traffic", and unlike TVA one authorization does not
   cover later connections between the same hosts). *)
let send_handshake t ~dst body =
  let now = Sim.now t.sim in
  Tva.Policy.note_outgoing_request t.policy ~now ~dst;
  let siff = Wire.Siff_marking.exp_packet () in
  (match Wire.Addr.Tbl.find_opt t.pending_return dst with
  | Some markings ->
      Wire.Addr.Tbl.remove t.pending_return dst;
      siff.Wire.Siff_marking.returned <- Some markings
  | None -> ());
  Net.originate t.node (Wire.Packet.make ~siff ~src:t.addr ~dst body)

let send_segment t ~dst seg =
  match seg.Wire.Tcp_segment.flags with
  | Wire.Tcp_segment.Syn | Wire.Tcp_segment.Syn_ack -> send_handshake t ~dst (Wire.Packet.Tcp seg)
  | Wire.Tcp_segment.Ack | Wire.Tcp_segment.Fin | Wire.Tcp_segment.Rst ->
      send_body t ~dst (Wire.Packet.Tcp seg)
let send_raw t ~dst ~bytes = send_body t ~dst (Wire.Packet.Raw bytes)

let send_legacy t ~dst ~bytes =
  let p = Wire.Packet.make ~src:t.addr ~dst (Wire.Packet.Raw bytes) in
  Net.originate t.node p

let handle_packet t _node ~in_link:_ (p : Wire.Packet.t) =
  if Wire.Addr.equal p.Wire.Packet.dst t.addr then begin
    let now = Sim.now t.sim in
    let src = p.Wire.Packet.src in
    (match p.Wire.Packet.siff with
    | None -> ()
    | Some m ->
        (match m.Wire.Siff_marking.flavor with
        | Wire.Siff_marking.Exp -> begin
            match Tva.Policy.decide t.policy ~now ~src ~renewal:false with
            | Tva.Policy.Granted _ ->
                Wire.Addr.Tbl.replace t.pending_return src (Wire.Siff_marking.path_markings m)
            | Tva.Policy.Refused -> ()
          end
        | Wire.Siff_marking.Dta -> ());
        (match m.Wire.Siff_marking.returned with
        | Some [] ->
            (* Explicit refusal: stop using whatever we had. *)
            let s = dst_state t src in
            s.markings <- None
        | Some markings ->
            let s = dst_state t src in
            s.markings <- Some markings;
            s.obtained_at <- now
        | None -> ()));
    Tva.Policy.note_traffic t.policy ~now ~src ~bytes:(Wire.Packet.size p) ~demoted:false;
    (match p.Wire.Packet.body with
    | Wire.Packet.Tcp seg -> t.on_segment ~src seg
    | Wire.Packet.Raw _ -> ());
    match (t.auto_reply, Wire.Addr.Tbl.find_opt t.pending_return src) with
    | true, Some (_ :: _) -> send_body t ~dst:src (Wire.Packet.Raw 64)
    | _, _ -> ()
  end

let create ?(rotation_period = Router.default_rotation_period) ?(auto_reply = false) ~policy ~node
    () =
  let addr =
    match Net.node_addr node with
    | Some a -> a
    | None -> invalid_arg "Siff.Host.create: node has no address"
  in
  let t =
    {
      rotation = rotation_period;
      policy;
      node;
      sim = Net.node_sim node;
      addr;
      auto_reply;
      dests = Wire.Addr.Tbl.create 16;
      pending_return = Wire.Addr.Tbl.create 16;
      on_segment = (fun ~src:_ _ -> ());
    }
  in
  Net.set_handler node (handle_packet t);
  t
