type t = {
  sim : Sim.t;
  mutable node_list : node list; (* reverse creation order *)
  mutable link_list : link list;
  mutable next_node_id : int;
  mutable next_link_id : int;
  mutable next_slot : int; (* dense index over addressed nodes *)
  by_addr : node Wire.Addr.Tbl.t;
  mutable trace : (event -> unit) option;
}

and node = {
  id : int;
  name : string;
  net : t;
  addr : Wire.Addr.t option;
  slot : int; (* dense destination index; -1 when unaddressed *)
  mutable handler : handler;
  mutable out_links : link list; (* reverse creation order *)
  mutable in_links : link list;
  mutable routes : link option array;
      (* next hop towards each addressed node, indexed by its [slot];
         filled by [compute_routes].  A dense array replaces the seed's
         per-node Hashtbl: route lookup is one shared address resolution
         plus an array load, with no per-node hashing on the forwarding
         path. *)
}

and handler = node -> in_link:link option -> Wire.Packet.t -> unit

and link = {
  lid : int;
  src : node;
  dst : node;
  bandwidth : float;
  delay : float;
  qdisc : Qdisc.t;
  mutable busy : bool;
  mutable up : bool;
  mutable poll : Sim.handle option;
  mutable limiter : (Wire.Packet.t -> bool) option;
  mutable fault : (Wire.Packet.t -> fault_action) option;
  mutable tx_packets : int;
  mutable tx_bytes : int;
}

and fault_action = Fault_pass | Fault_lose | Fault_dup | Fault_delay of float

and event =
  | Queue_drop of link * Wire.Packet.t
  | Hops_exceeded of node * Wire.Packet.t
  | No_route of node * Wire.Packet.t
  | Transmit of link * Wire.Packet.t
  | Deliver of node * Wire.Packet.t
  | Link_fault of link * Wire.Packet.t

let create sim =
  {
    sim;
    node_list = [];
    link_list = [];
    next_node_id = 0;
    next_link_id = 0;
    next_slot = 0;
    by_addr = Wire.Addr.Tbl.create 64;
    trace = None;
  }

let sim t = t.sim
let now t = Sim.now t.sim
let set_trace t hook = t.trace <- hook

let emit t ev = match t.trace with None -> () | Some hook -> hook ev

let add_node ?addr ~name t handler =
  (match addr with
  | Some a when Wire.Addr.Tbl.mem t.by_addr a ->
      invalid_arg (Fmt.str "Net.add_node: duplicate address %a" Wire.Addr.pp a)
  | _ -> ());
  let slot =
    match addr with
    | Some _ ->
        let s = t.next_slot in
        t.next_slot <- t.next_slot + 1;
        s
    | None -> -1
  in
  let node =
    {
      id = t.next_node_id;
      name;
      net = t;
      addr;
      slot;
      handler;
      out_links = [];
      in_links = [];
      routes = [||];
    }
  in
  t.next_node_id <- t.next_node_id + 1;
  t.node_list <- node :: t.node_list;
  (match addr with Some a -> Wire.Addr.Tbl.add t.by_addr a node | None -> ());
  node

let set_handler node h = node.handler <- h
let node_sim node = node.net.sim
let node_name node = node.name
let node_addr node = node.addr
let node_id node = node.id

let link_oneway t ~src ~dst ~bandwidth_bps ~delay ~qdisc =
  if bandwidth_bps <= 0. then invalid_arg "Net.link_oneway: bandwidth must be positive";
  if delay < 0. then invalid_arg "Net.link_oneway: delay must be nonnegative";
  let link =
    {
      lid = t.next_link_id;
      src;
      dst;
      bandwidth = bandwidth_bps;
      delay;
      qdisc;
      busy = false;
      up = true;
      poll = None;
      limiter = None;
      fault = None;
      tx_packets = 0;
      tx_bytes = 0;
    }
  in
  t.next_link_id <- t.next_link_id + 1;
  t.link_list <- link :: t.link_list;
  src.out_links <- link :: src.out_links;
  dst.in_links <- link :: dst.in_links;
  link

let duplex t a b ~bandwidth_bps ~delay ~qdisc =
  let ab = link_oneway t ~src:a ~dst:b ~bandwidth_bps ~delay ~qdisc:(qdisc ()) in
  let ba = link_oneway t ~src:b ~dst:a ~bandwidth_bps ~delay ~qdisc:(qdisc ()) in
  (ab, ba)

(* When a qdisc reports [next_ready] at (or before) the current instant but
   still refuses to dequeue — a token bucket whose accumulated tokens round
   to just under one packet, say — re-polling at the same virtual time would
   spin the event loop forever.  Back off by this minimum delay (one virtual
   microsecond: far below any packet serialization time, so it never delays
   real service measurably). *)
let min_poll_delay = 1e-6

let[@inline] propagate link ~extra thunk =
  ignore
    (Sim.schedule ~kind:Sim.Kind.net_deliver link.src.net.sim ~delay:(link.delay +. extra) thunk)

(* The transmitter: serialize the head packet, then propagate.  [kick]
   starts service if the link is idle and administratively up; when the
   qdisc is unready it arms a single poll timer at [next_ready].

   The per-link fault hook is consulted once per packet, after the packet
   has been dequeued and charged serialization time (a lost or duplicated
   packet still occupied the wire).  When [fault = None] the match reduces
   to the pass branch, which is the exact pre-fault code path — figure
   output with no injector installed is byte-identical. *)
let rec kick link =
  if (not link.busy) && link.up then begin
    let net = link.src.net in
    let sim = net.sim in
    let time = Sim.now sim in
    (match link.poll with
    | Some h ->
        Sim.cancel h;
        link.poll <- None
    | None -> ());
    let p = Qdisc.dequeue link.qdisc ~now:time in
    if p != Qdisc.none then begin
        link.busy <- true;
        link.tx_packets <- link.tx_packets + 1;
        link.tx_bytes <- link.tx_bytes + Wire.Packet.size p;
        emit net (Transmit (link, p));
        let tx_time = float_of_int (Wire.Packet.size p) *. 8. /. link.bandwidth in
        match (match link.fault with None -> Fault_pass | Some f -> f p) with
        | Fault_pass ->
            ignore
              (Sim.schedule ~kind:Sim.Kind.net_transmit sim ~delay:tx_time (fun () ->
                   link.busy <- false;
                   propagate link ~extra:0. (fun () ->
                       emit net (Deliver (link.dst, p));
                       link.dst.handler link.dst ~in_link:(Some link) p);
                   kick link))
        | Fault_lose ->
            emit net (Link_fault (link, p));
            ignore
              (Sim.schedule ~kind:Sim.Kind.net_transmit sim ~delay:tx_time (fun () ->
                   link.busy <- false;
                   kick link))
        | Fault_dup ->
            emit net (Link_fault (link, p));
            let p2 = Wire.Packet.copy p in
            ignore
              (Sim.schedule ~kind:Sim.Kind.net_transmit sim ~delay:tx_time (fun () ->
                   link.busy <- false;
                   propagate link ~extra:0. (fun () ->
                       emit net (Deliver (link.dst, p));
                       link.dst.handler link.dst ~in_link:(Some link) p;
                       emit net (Deliver (link.dst, p2));
                       link.dst.handler link.dst ~in_link:(Some link) p2);
                   kick link))
        | Fault_delay extra ->
            emit net (Link_fault (link, p));
            let extra = Float.max 0. extra in
            ignore
              (Sim.schedule ~kind:Sim.Kind.net_transmit sim ~delay:tx_time (fun () ->
                   link.busy <- false;
                   propagate link ~extra (fun () ->
                       emit net (Deliver (link.dst, p));
                       link.dst.handler link.dst ~in_link:(Some link) p);
                   kick link))
    end
    else begin
      let at = Qdisc.next_ready link.qdisc ~now:time in
      if at < infinity then begin
        let delay = Float.max 0. (at -. time) in
        (* Never arm a zero-delay self-poll after an empty dequeue: the
           qdisc is momentarily unservable, so wait a token tick. *)
        let delay = if delay <= 0. then min_poll_delay else delay in
        link.poll <-
          Some
            (Sim.schedule ~kind:Sim.Kind.net_poll sim ~delay (fun () ->
                 link.poll <- None;
                 kick link))
      end
    end
  end

let enqueue_on link p =
  let net = link.src.net in
  let admitted = match link.limiter with None -> true | Some f -> f p in
  if not admitted then begin
    link.qdisc.Qdisc.stats.Qdisc.dropped <- link.qdisc.Qdisc.stats.Qdisc.dropped + 1;
    link.qdisc.Qdisc.stats.Qdisc.bytes_dropped <-
      link.qdisc.Qdisc.stats.Qdisc.bytes_dropped + Wire.Packet.size p;
    emit net (Queue_drop (link, p))
  end
  else if Qdisc.enqueue link.qdisc ~now:(Sim.now net.sim) p then kick link
  else emit net (Queue_drop (link, p))

let charge_hop node p =
  if p.Wire.Packet.hops <= 0 then begin
    emit node.net (Hops_exceeded (node, p));
    false
  end
  else begin
    p.Wire.Packet.hops <- p.Wire.Packet.hops - 1;
    true
  end

let forward_on node link p =
  assert (link.src == node);
  if charge_hop node p then enqueue_on link p

let route_for node addr =
  match Wire.Addr.Tbl.find_opt node.net.by_addr addr with
  | Some dst when dst.slot < Array.length node.routes ->
      Array.unsafe_get node.routes dst.slot (* slot >= 0: addressed node *)
  | Some _ | None -> None

let forward node p =
  if charge_hop node p then begin
    match route_for node p.Wire.Packet.dst with
    | None -> emit node.net (No_route (node, p))
    | Some link -> enqueue_on link p
  end

let originate node p = forward node p

(* Shortest-path routing by BFS from every node over its out-links; ties
   resolve to the earliest-created link, which makes routes deterministic.
   Adjacency arrays (in link-creation order) are built once up front — the
   seed reversed each node's [out_links] list inside every BFS, i.e. O(V·E)
   list reversals per recompute. *)
let compute_routes t =
  let nodes = List.rev t.node_list in
  let n = t.next_node_id in
  let n_slots = t.next_slot in
  let adj = Array.make n [||] in
  List.iter (fun node -> adj.(node.id) <- Array.of_list (List.rev node.out_links)) nodes;
  (* Scratch reused across sources: [seen] is a generation stamp so it needs
     no clearing between BFS runs, [frontier] a preallocated ring (each node
     enters at most once). *)
  let seen = Array.make n (-1) in
  let first_hop : link option array = Array.make n None in
  let frontier = Array.make (max n 1) (-1) in
  let run_bfs source =
    source.routes <- Array.make n_slots None;
    seen.(source.id) <- source.id;
    first_hop.(source.id) <- None;
    frontier.(0) <- source.id;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = frontier.(!head) in
      incr head;
      let links = adj.(u) in
      for k = 0 to Array.length links - 1 do
        let link = links.(k) in
        let v = link.dst.id in
        if seen.(v) <> source.id then begin
          seen.(v) <- source.id;
          first_hop.(v) <- (if u = source.id then Some link else first_hop.(u));
          (match (link.dst.addr, first_hop.(v)) with
          | Some _, Some hop -> source.routes.(link.dst.slot) <- Some hop
          | _, _ -> ());
          frontier.(!tail) <- v;
          incr tail
        end
      done
    done
  in
  List.iter run_bfs nodes

let links_into node = List.rev node.in_links
let links_out_of node = List.rev node.out_links
let link_id link = link.lid
let link_src link = link.src
let link_dst link = link.dst
let link_qdisc link = link.qdisc
let link_bandwidth link = link.bandwidth
let link_delay link = link.delay
let link_tx_packets link = link.tx_packets
let link_tx_bytes link = link.tx_bytes
let link_set_limiter link f = link.limiter <- f
let link_set_fault link f = link.fault <- f
let link_is_up link = link.up

let link_set_up link v =
  if link.up <> v then begin
    link.up <- v;
    if v then kick link
    else
      match link.poll with
      | Some h ->
          Sim.cancel h;
          link.poll <- None
      | None -> ()
  end

let nodes t = List.rev t.node_list
let links t = List.rev t.link_list
let find_node_by_addr t addr = Wire.Addr.Tbl.find_opt t.by_addr addr
