type t = {
  net : Net.t;
  left : Net.node;
  right : Net.node;
  users : Net.node array;
  attackers : Net.node array;
  destination : Net.node;
  colluder : Net.node option;
  bottleneck : Net.link;
  bottleneck_reverse : Net.link;
}

let user_addr i = Wire.Addr.of_int (0x0a000000 + i)
let attacker_addr i = Wire.Addr.of_int (0x0b000000 + i)
let destination_addr = Wire.Addr.of_int 0xc0a80001
let colluder_addr = Wire.Addr.of_int 0xc0a80002

let sink_handler _node ~in_link:_ _p = ()

let dumbbell ?(bottleneck_bps = 10e6) ?(bottleneck_delay = 0.010) ?(access_bps = 10e6)
    ?(access_delay = 0.010) ?(n_users = 10) ?(with_colluder = false) ~n_attackers ~make_qdisc sim =
  if n_users < 0 || n_attackers < 0 then invalid_arg "Topology.dumbbell: negative host count";
  let net = Net.create sim in
  let left = Net.add_node ~name:"left-router" net sink_handler in
  let right = Net.add_node ~name:"right-router" net sink_handler in
  let attach host bps delay =
    ignore (Net.duplex net host left ~bandwidth_bps:bps ~delay ~qdisc:(fun () -> make_qdisc ~bandwidth_bps:bps))
  in
  let users =
    Array.init n_users (fun i ->
        let u = Net.add_node ~addr:(user_addr i) ~name:("user" ^ string_of_int i) net sink_handler in
        attach u access_bps access_delay;
        u)
  in
  let attackers =
    Array.init n_attackers (fun i ->
        let a =
          Net.add_node ~addr:(attacker_addr i) ~name:("attacker" ^ string_of_int i) net sink_handler
        in
        attach a access_bps access_delay;
        a)
  in
  let bottleneck, bottleneck_reverse =
    Net.duplex net left right ~bandwidth_bps:bottleneck_bps ~delay:bottleneck_delay
      ~qdisc:(fun () -> make_qdisc ~bandwidth_bps:bottleneck_bps)
  in
  let destination = Net.add_node ~addr:destination_addr ~name:"destination" net sink_handler in
  ignore
    (Net.duplex net right destination ~bandwidth_bps:access_bps ~delay:access_delay
       ~qdisc:(fun () -> make_qdisc ~bandwidth_bps:access_bps));
  let colluder =
    if with_colluder then begin
      let c = Net.add_node ~addr:colluder_addr ~name:"colluder" net sink_handler in
      ignore
        (Net.duplex net right c ~bandwidth_bps:access_bps ~delay:access_delay
           ~qdisc:(fun () -> make_qdisc ~bandwidth_bps:access_bps));
      Some c
    end
    else None
  in
  Net.compute_routes net;
  { net; left; right; users; attackers; destination; colluder; bottleneck; bottleneck_reverse }

let labeled_links t =
  let label l = Net.node_name (Net.link_src l) ^ "->" ^ Net.node_name (Net.link_dst l) in
  ("bottleneck", t.bottleneck)
  :: ("rbottleneck", t.bottleneck_reverse)
  :: List.filter_map
       (fun l ->
         if l == t.bottleneck || l == t.bottleneck_reverse then None else Some (label l, l))
       (Net.links t.net)

(* --- scale topologies --------------------------------------------------- *)
(* Generators for the million-sender scale experiments (DESIGN.md section
   13).  Unlike [dumbbell] these do NOT compute routes: the caller
   attaches host nodes (users, aggregate-attacker ingress points) first and
   runs [Net.compute_routes] once, paying the O(V * E) relaxation a single
   time. *)

let attach_host ?(bandwidth_bps = 10e6) ?(delay = 0.010) ~make_qdisc ~net ~router ~addr ~name ()
    =
  let h = Net.add_node ~addr ~name net sink_handler in
  ignore
    (Net.duplex net h router ~bandwidth_bps ~delay ~qdisc:(fun () -> make_qdisc ~bandwidth_bps));
  h

type scale = {
  s_net : Net.t;
  s_routers : Net.node array;
  s_ingress : Net.node array;
  s_destination : Net.node;
  s_destination_addr : Wire.Addr.t;
}

let fanin_destination_addr = Wire.Addr.of_int 0xc0ac0001

let fanin ?(depth = 3) ?(fanout = 4) ?(bottleneck_bps = 10e6) ?(link_bps = 100e6)
    ?(delay = 0.005) ~make_qdisc sim =
  if depth < 1 then invalid_arg "Topology.fanin: depth must be at least 1";
  if fanout < 1 then invalid_arg "Topology.fanin: fanout must be at least 1";
  let net = Net.create sim in
  (* Routers in BFS order: index 0 is the root; the children of router [i]
     are routers [i * fanout + 1 .. i * fanout + fanout]. *)
  let n_routers = ref 1 and level = ref 1 in
  for _ = 2 to depth do
    level := !level * fanout;
    n_routers := !n_routers + !level
  done;
  let routers =
    Array.init !n_routers (fun i ->
        Net.add_node ~name:("fanin-r" ^ string_of_int i) net sink_handler)
  in
  for i = 1 to !n_routers - 1 do
    let parent = (i - 1) / fanout in
    ignore
      (Net.duplex net routers.(i) routers.(parent) ~bandwidth_bps:link_bps ~delay
         ~qdisc:(fun () -> make_qdisc ~bandwidth_bps:link_bps))
  done;
  let first_leaf = if depth = 1 then 0 else !n_routers - !level in
  let leaves = Array.sub routers first_leaf (!n_routers - first_leaf) in
  let destination =
    Net.add_node ~addr:fanin_destination_addr ~name:"destination" net sink_handler
  in
  ignore
    (Net.duplex net routers.(0) destination ~bandwidth_bps:bottleneck_bps ~delay
       ~qdisc:(fun () -> make_qdisc ~bandwidth_bps:bottleneck_bps));
  {
    s_net = net;
    s_routers = routers;
    s_ingress = leaves;
    s_destination = destination;
    s_destination_addr = fanin_destination_addr;
  }

let parking_exit_addr i = Wire.Addr.of_int (0xc0aa0000 + i)
let parking_destination_addr = Wire.Addr.of_int 0xc0ab0001

let parking_lot ?(segments = 3) ?(bottleneck_bps = 10e6) ?(access_bps = 100e6) ?(delay = 0.005)
    ~make_qdisc sim =
  if segments < 1 then invalid_arg "Topology.parking_lot: need at least one segment";
  let net = Net.create sim in
  let routers =
    Array.init (segments + 1) (fun i ->
        Net.add_node ~name:("pl-r" ^ string_of_int i) net sink_handler)
  in
  for i = 0 to segments - 1 do
    ignore
      (Net.duplex net routers.(i) routers.(i + 1) ~bandwidth_bps:bottleneck_bps ~delay
         ~qdisc:(fun () -> make_qdisc ~bandwidth_bps:bottleneck_bps))
  done;
  (* A sink host off each interior/egress router: a short flow entering at
     router [i] and exiting at router [i + 1] crosses exactly segment [i],
     which is what makes the chain multi-bottleneck. *)
  for i = 0 to segments - 1 do
    ignore
      (attach_host ~bandwidth_bps:access_bps ~delay ~make_qdisc ~net ~router:routers.(i + 1)
         ~addr:(parking_exit_addr i)
         ~name:("pl-exit" ^ string_of_int i)
         ())
  done;
  let destination =
    attach_host ~bandwidth_bps:access_bps ~delay ~make_qdisc ~net ~router:routers.(segments)
      ~addr:parking_destination_addr ~name:"destination" ()
  in
  (* Hosts enter at every router but the last, so traffic to the far
     destination loads later segments cumulatively. *)
  {
    s_net = net;
    s_routers = routers;
    s_ingress = Array.sub routers 0 segments;
    s_destination = destination;
    s_destination_addr = parking_destination_addr;
  }

let power_law_destination_addr = Wire.Addr.of_int 0xc0ad0001

let power_law ?(routers = 64) ?(edges_per_node = 2) ?(link_bps = 100e6) ?(bottleneck_bps = 10e6)
    ?(delay = 0.005) ~seed ~make_qdisc sim =
  let m = edges_per_node in
  if m < 1 then invalid_arg "Topology.power_law: edges_per_node must be at least 1";
  if routers < m + 1 then invalid_arg "Topology.power_law: need more routers than edges_per_node";
  let net = Net.create sim in
  let nodes =
    Array.init routers (fun i ->
        Net.add_node ~name:("as" ^ string_of_int i) net sink_handler)
  in
  let degrees = Array.make routers 0 in
  (* Preferential attachment (Barabasi-Albert): the chance a new node links
     to [v] is proportional to [v]'s degree, sampled from a flat list where
     each edge contributes both endpoints.  Deterministic under [seed]. *)
  let endpoints = ref [] and n_endpoints = ref 0 in
  let rng = Rng.create ~seed in
  let connect a b =
    ignore
      (Net.duplex net nodes.(a) nodes.(b) ~bandwidth_bps:link_bps ~delay
         ~qdisc:(fun () -> make_qdisc ~bandwidth_bps:link_bps));
    degrees.(a) <- degrees.(a) + 1;
    degrees.(b) <- degrees.(b) + 1;
    endpoints := a :: b :: !endpoints;
    n_endpoints := !n_endpoints + 2
  in
  (* Seed graph: a path over the first m + 1 routers. *)
  for i = 1 to m do
    connect (i - 1) i
  done;
  let flat = ref (Array.of_list !endpoints) in
  let flat_len = ref !n_endpoints in
  let push_edges j targets =
    List.iter
      (fun v ->
        connect j v;
        let a = !flat in
        let need = !flat_len + 2 in
        if need > Array.length a then begin
          let bigger = Array.make (max 16 (2 * Array.length a)) 0 in
          Array.blit a 0 bigger 0 !flat_len;
          flat := bigger
        end;
        !flat.(!flat_len) <- j;
        !flat.(!flat_len + 1) <- v;
        flat_len := !flat_len + 2)
      targets
  in
  for j = m + 1 to routers - 1 do
    let picked = ref [] in
    let tries = ref 0 in
    while List.length !picked < m && !tries < 64 * m do
      incr tries;
      let v = !flat.(Rng.int rng !flat_len) in
      if not (List.mem v !picked) then picked := v :: !picked
    done;
    (* Degenerate fallback (tiny graphs): take the first unpicked nodes. *)
    let v = ref 0 in
    while List.length !picked < m do
      if !v <> j && not (List.mem !v !picked) then picked := !v :: !picked;
      incr v
    done;
    push_edges j (List.rev !picked)
  done;
  let core = ref 0 in
  Array.iteri (fun i d -> if d > degrees.(!core) then core := i) degrees;
  let destination =
    Net.add_node ~addr:power_law_destination_addr ~name:"destination" net sink_handler
  in
  ignore
    (Net.duplex net nodes.(!core) destination ~bandwidth_bps:bottleneck_bps ~delay
       ~qdisc:(fun () -> make_qdisc ~bandwidth_bps:bottleneck_bps));
  {
    s_net = net;
    s_routers = nodes;
    s_ingress = nodes;
    s_destination = destination;
    s_destination_addr = power_law_destination_addr;
  }
