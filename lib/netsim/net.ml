type t = {
  sim : Sim.t;
  mutable node_list : node list; (* reverse creation order *)
  mutable link_list : link list;
  mutable next_node_id : int;
  mutable next_link_id : int;
  mutable next_slot : int; (* dense index over addressed nodes *)
  by_addr : node Wire.Addr.Tbl.t;
  mutable trace : (event -> unit) option;
  lanes : (int * float, Sim.lane) Hashtbl.t;
      (* the network's lanes by (kind, delay): one per distinct link delay
         and one per distinct serialization time, made on first use *)
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
  mutable fault : (Wire.Packet.t -> fault_action) option;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable pipe : pipe; (* [no_pipe] until the transmitter first runs *)
}

(* The transmitter's per-link state, built the first time [kick] runs on
   the link (normally its first enqueue), so building a topology
   allocates none of it. *)
and pipe = {
  (* Allocated once, so a hop schedules no closure. *)
  self : link option; (* [Some link], the [in_link] handlers receive *)
  on_tx_done : unit -> unit;
  on_deliver : unit -> unit;
  on_poll : unit -> unit;
  deliver_lane : Sim.lane; (* the network's lane for the link's delay *)
  (* The transmit-completion lanes of recent packet sizes, direct-mapped
     by [tx_slot]: [tx_lanes.(j)] is the lane for [tx_sizes.(j)]-byte
     packets, and [tx_sizes.(j)] is [-1] while the entry is empty.  On
     one link a size always takes the same serialization time. *)
  tx_sizes : int array;
  tx_lanes : Sim.lane array;
  (* The packet serializing ([Qdisc.none] when idle), its fault decision,
     and the copy a [Fault_dup] delivers beside it. *)
  mutable wire : Wire.Packet.t;
  mutable wire_fault : fault_action;
  mutable wire_dup : Wire.Packet.t;
  (* The in-flight ring: packets propagating at the link's constant delay,
     in send order.  Each has one [on_deliver] on the link's lane. *)
  mutable fl_pkts : Wire.Packet.t array; (* capacity 0 or a power of two *)
  mutable fl_head : int;
  mutable fl_len : int;
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
    lanes = Hashtbl.create 8;
  }

let now t = Sim.now t.sim
let set_trace t hook = t.trace <- hook

let emit t ev = match t.trace with None -> () | Some hook -> hook ev

(* Guard every [emit] with this, so no event variant is built with the
   trace off. *)
let[@inline] tracing t = t.trace != None

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

(* When a qdisc reports [next_ready] at (or before) the current instant but
   still refuses to dequeue — a token bucket whose accumulated tokens round
   to just under one packet, say — re-polling at the same virtual time would
   spin the event loop forever.  Back off by this minimum delay (one virtual
   microsecond: far below any packet serialization time, so it never delays
   real service measurably). *)
let min_poll_delay = 1e-6

(* Profiler tags, boxed once: passing [~kind] would build a [Some] per call. *)
let k_deliver = Some Sim.Kind.net_deliver
let k_poll = Some Sim.Kind.net_poll

(* The network's lane of [kind] for [delay], made on first use. *)
let lane_for t kind delay =
  match Hashtbl.find_opt t.lanes (kind, delay) with
  | Some l -> l
  | None ->
      let l = Sim.lane ~kind t.sim ~delay in
      Hashtbl.add t.lanes (kind, delay) l;
      l

let tx_cache = 16

(* A lane nothing is ever scheduled on: [no_pipe]'s, and the one in every
   empty cache entry. *)
let no_lane = Sim.lane (Sim.create ()) ~delay:0.

let make_pipe ~self ~on_tx_done ~on_deliver ~on_poll ~deliver_lane =
  {
    self;
    on_tx_done;
    on_deliver;
    on_poll;
    deliver_lane;
    tx_sizes = Array.make tx_cache (-1);
    tx_lanes = Array.make tx_cache no_lane;
    wire = Qdisc.none;
    wire_fault = Fault_pass;
    wire_dup = Qdisc.none;
    fl_pkts = [||];
    fl_head = 0;
    fl_len = 0;
  }

let no_pipe =
  make_pipe ~self:None ~on_tx_done:ignore ~on_deliver:ignore ~on_poll:ignore ~deliver_lane:no_lane

let arrive link p =
  if tracing link.src.net then emit link.src.net (Deliver (link.dst, p));
  link.dst.handler link.dst ~in_link:link.pipe.self p

(* --- The in-flight ring ------------------------------------------------ *)

let flight_grow pp =
  let cap = max 8 (2 * Array.length pp.fl_pkts) in
  let pkts = Array.make cap Qdisc.none in
  for i = 0 to pp.fl_len - 1 do
    pkts.(i) <- pp.fl_pkts.((pp.fl_head + i) land (Array.length pp.fl_pkts - 1))
  done;
  pp.fl_pkts <- pkts;
  pp.fl_head <- 0

(* Put a serialized packet on the wire.  A constant-delay link delivers in
   FIFO order, so the ring needs no keys: the link's lane fires one
   [on_deliver] per packet under the key [Sim.schedule ~delay] would give,
   in the order they were launched, and each pops the ring's head. *)
let launch pp p =
  if pp.fl_len = Array.length pp.fl_pkts then flight_grow pp;
  pp.fl_pkts.((pp.fl_head + pp.fl_len) land (Array.length pp.fl_pkts - 1)) <- p;
  pp.fl_len <- pp.fl_len + 1;
  Sim.lane_schedule pp.deliver_lane pp.on_deliver

let deliver_head link =
  let pp = link.pipe in
  let i = pp.fl_head in
  let p = pp.fl_pkts.(i) in
  pp.fl_pkts.(i) <- Qdisc.none;
  pp.fl_head <- (i + 1) land (Array.length pp.fl_pkts - 1);
  pp.fl_len <- pp.fl_len - 1;
  arrive link p

(* --- The transmitter --------------------------------------------------- *)

(* A multiplicative hash, so that sizes a few bytes apart (40, 44, 52,
   1040, 1044, 1052, ...) spread over the cache. *)
let[@inline] tx_slot size = ((size * 0x9E3779B1) lsr 16) land (tx_cache - 1)

let tx_lane_miss link pp size j =
  let l =
    lane_for link.src.net Sim.Kind.net_transmit
      (float_of_int size *. 8. /. link.bandwidth)
  in
  pp.tx_sizes.(j) <- size;
  pp.tx_lanes.(j) <- l;
  l

(* The lane on which a [size]-byte packet's transmit completes: its delay
   is the serialization time [size * 8 / bandwidth], computed exactly as a
   one-off [done_at] would be, so the completion keeps its key. *)
let[@inline] tx_lane link pp size =
  let j = tx_slot size in
  if Array.unsafe_get pp.tx_sizes j = size then Array.unsafe_get pp.tx_lanes j
  else tx_lane_miss link pp size j

(* Serialize the head packet, then propagate.  [kick] starts service if the
   link is idle and administratively up; when the qdisc is unready it arms
   a single poll timer at [next_ready].

   The per-link fault hook is consulted once per packet, after the packet
   has been dequeued and charged serialization time (a lost or duplicated
   packet still occupied the wire).  With [fault = None] the decision is
   [Fault_pass], the exact pre-fault path: figure output with no injector
   installed is byte-identical. *)
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
    let pp = if link.pipe == no_pipe then open_pipe link else link.pipe in
    let p = Qdisc.dequeue link.qdisc ~now:time in
    if p != Qdisc.none then begin
      link.busy <- true;
      link.tx_packets <- link.tx_packets + 1;
      let size = Wire.Packet.size p in
      link.tx_bytes <- link.tx_bytes + size;
      if tracing net then emit net (Transmit (link, p));
      let fault = match link.fault with None -> Fault_pass | Some f -> f p in
      if fault != Fault_pass then begin
        if tracing net then emit net (Link_fault (link, p));
        match fault with Fault_dup -> pp.wire_dup <- Wire.Packet.copy p | _ -> ()
      end;
      pp.wire <- p;
      pp.wire_fault <- fault;
      Sim.lane_schedule (tx_lane link pp size) pp.on_tx_done
    end
    else begin
      let at = Qdisc.next_ready link.qdisc ~now:time in
      if at < infinity then begin
        let delay = Float.max 0. (at -. time) in
        (* Never arm a zero-delay self-poll after an empty dequeue: the
           qdisc is momentarily unservable, so wait a token tick. *)
        let delay = if delay <= 0. then min_poll_delay else delay in
        link.poll <- Some (Sim.timer ?kind:k_poll sim ~delay pp.on_poll)
      end
    end
  end

(* Serialization done: the link is free again.  [Fault_dup] and
   [Fault_delay] schedule their own delivery: a duplicate delivers two
   packets in one event, and a delayed packet leaves the FIFO order that
   the ring relies on (later packets may overtake it). *)
and tx_done link =
  link.busy <- false;
  let pp = link.pipe in
  let p = pp.wire in
  pp.wire <- Qdisc.none;
  (match pp.wire_fault with
  | Fault_pass -> launch pp p
  | Fault_lose -> ()
  | Fault_dup ->
      let p2 = pp.wire_dup in
      pp.wire_dup <- Qdisc.none;
      Sim.schedule ?kind:k_deliver link.src.net.sim ~delay:link.delay (fun () ->
          arrive link p;
          arrive link p2)
  | Fault_delay extra ->
      Sim.schedule ?kind:k_deliver link.src.net.sim
        ~delay:(link.delay +. Float.max 0. extra)
        (fun () -> arrive link p));
  kick link

and open_pipe link =
  let pp =
    make_pipe ~self:(Some link)
      ~on_tx_done:(fun () -> tx_done link)
      ~on_deliver:(fun () -> deliver_head link)
      ~on_poll:(fun () ->
        link.poll <- None;
        kick link)
      ~deliver_lane:(lane_for link.src.net Sim.Kind.net_deliver link.delay)
  in
  link.pipe <- pp;
  pp

let link_oneway t ~src ~dst ~bandwidth_bps ~delay ~qdisc =
  if bandwidth_bps <= 0. then invalid_arg "Net.link_oneway: bandwidth must be positive";
  if not (delay >= 0.) then invalid_arg "Net.link_oneway: delay must be nonnegative";
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
      fault = None;
      tx_packets = 0;
      tx_bytes = 0;
      pipe = no_pipe;
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

let enqueue_on link p =
  let net = link.src.net in
  if Qdisc.enqueue link.qdisc ~now:(Sim.now net.sim) p then kick link
  else if tracing net then emit net (Queue_drop (link, p))

let charge_hop node p =
  if p.Wire.Packet.hops <= 0 then begin
    if tracing node.net then emit node.net (Hops_exceeded (node, p));
    false
  end
  else begin
    p.Wire.Packet.hops <- p.Wire.Packet.hops - 1;
    true
  end

let forward_on node link p =
  assert (link.src == node);
  if charge_hop node p then enqueue_on link p

(* [find], not [find_opt]: a hit returns the node without a [Some] box,
   so a lookup allocates nothing. *)
let route_for node addr =
  match Wire.Addr.Tbl.find node.net.by_addr addr with
  | dst when dst.slot < Array.length node.routes ->
      Array.unsafe_get node.routes dst.slot (* slot >= 0: addressed node *)
  | _ -> None
  | exception Not_found -> None

let forward node p =
  if charge_hop node p then begin
    match route_for node p.Wire.Packet.dst with
    | None -> if tracing node.net then emit node.net (No_route (node, p))
    | Some link -> enqueue_on link p
  end

let originate node p = forward node p

(* Shortest-path routing by BFS from every node over its out-links; ties
   resolve to the earliest-created link, which makes routes deterministic.
   Adjacency arrays (in link-creation order) are built once up front — the
   seed reversed each node's [out_links] list inside every BFS, i.e. O(V·E)
   list reversals per recompute.

   A node with a single out-link (every host) needs no BFS of its own: it
   reaches, through that link, exactly the link's far end and what the far
   end reaches, except itself.  So routers are searched first, and each
   single-homed node copies its neighbour's table, when the neighbour was
   searched, in one pass over the slots.  The copy starts filled with the
   node's one route, so only the few slots the neighbour cannot reach are
   written, and no reachable slot pays a write barrier. *)
let compute_routes t =
  let nodes = List.rev t.node_list in
  let n = t.next_node_id in
  let n_slots = t.next_slot in
  let adj = Array.make n [||] in
  List.iter (fun node -> adj.(node.id) <- Array.of_list (List.rev node.out_links)) nodes;
  (* Every route through a link shares that link's one [Some link]. *)
  let some_link = Array.make t.next_link_id None in
  List.iter (fun link -> some_link.(link.lid) <- Some link) t.link_list;
  (* Scratch reused across sources: [seen] is a generation stamp so it needs
     no clearing between BFS runs, [first_hop] holds link ids (plain
     stores, no write barrier), [frontier] is a preallocated ring (each
     node enters at most once). *)
  let seen = Array.make n (-1) in
  let first_hop = Array.make n (-1) in
  let frontier = Array.make (max n 1) (-1) in
  let run_bfs source =
    let routes = Array.make n_slots None in
    seen.(source.id) <- source.id;
    frontier.(0) <- source.id;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = frontier.(!head) in
      incr head;
      let links = adj.(u) in
      for k = 0 to Array.length links - 1 do
        let link = links.(k) in
        let dst = link.dst in
        let v = dst.id in
        if seen.(v) <> source.id then begin
          seen.(v) <- source.id;
          let hop = if u = source.id then link.lid else first_hop.(u) in
          first_hop.(v) <- hop;
          if dst.slot >= 0 then routes.(dst.slot) <- some_link.(hop);
          frontier.(!tail) <- v;
          incr tail
        end
      done
    done;
    source.routes <- routes
  in
  let single node = Array.length adj.(node.id) = 1 in
  List.iter (fun node -> if not (single node) then run_bfs node) nodes;
  List.iter
    (fun node ->
      if single node then begin
        let link = adj.(node.id).(0) in
        let far = link.dst in
        if single far then run_bfs node
        else begin
          let hop = some_link.(link.lid) and far_routes = far.routes in
          let routes = Array.make n_slots hop in
          for i = 0 to n_slots - 1 do
            if far_routes.(i) == None then routes.(i) <- None
          done;
          if far.slot >= 0 then routes.(far.slot) <- hop;
          if node.slot >= 0 then routes.(node.slot) <- None;
          node.routes <- routes
        end
      end)
    nodes

let links_into node = List.rev node.in_links
let links_out_of node = List.rev node.out_links
let link_id link = link.lid
let link_src link = link.src
let link_dst link = link.dst
let link_qdisc link = link.qdisc
let link_bandwidth link = link.bandwidth
let link_tx_packets link = link.tx_packets
let link_tx_bytes link = link.tx_bytes
let link_set_fault link f = link.fault <- f

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
