(* The network layer: link timing (serialization + propagation), routing,
   tracing, forwarding edge cases, and the canned topologies. *)

let mk_net () =
  let sim = Sim.create () in
  let net = Net.create sim in
  (sim, net)

let plain_qdisc () = Droptail.create ~capacity_bytes:1_000_000 ()

let sink () =
  let received = ref [] in
  let handler _node ~in_link:_ p = received := p :: !received in
  (received, handler)

let mk_packet ?(bytes = 1000) ~src ~dst () =
  Wire.Packet.make ~src ~dst (Wire.Packet.Raw bytes)

let a_addr = Wire.Addr.of_int 1
let b_addr = Wire.Addr.of_int 2

let link_delivers_with_correct_latency () =
  let sim, net = mk_net () in
  let received, handler = sink () in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let b = Net.add_node ~addr:b_addr ~name:"b" net handler in
  (* 1000-byte packet on 1 Mb/s with 10 ms propagation: 8 ms + 10 ms. *)
  ignore (Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:1e6 ~delay:0.010 ~qdisc:(plain_qdisc ()));
  Net.compute_routes net;
  let arrival = ref 0. in
  Net.set_handler b (fun _ ~in_link:_ _ -> arrival := Sim.now sim);
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr ());
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "8ms tx + 10ms prop" 0.018 !arrival;
  ignore received

let link_serializes_back_to_back () =
  let sim, net = mk_net () in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let b = Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ _ -> ()) in
  ignore (Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:1e6 ~delay:0.010 ~qdisc:(plain_qdisc ()));
  Net.compute_routes net;
  let arrivals = ref [] in
  Net.set_handler b (fun _ ~in_link:_ _ -> arrivals := Sim.now sim :: !arrivals);
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr ());
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr ());
  Sim.run sim;
  match List.rev !arrivals with
  | [ t1; t2 ] ->
      Alcotest.(check (float 1e-9)) "first" 0.018 t1;
      (* The second serializes behind the first: one more 8 ms tx time. *)
      Alcotest.(check (float 1e-9)) "second" 0.026 t2
  | other -> Alcotest.failf "expected 2 arrivals, got %d" (List.length other)

let multi_hop_routing () =
  let sim, net = mk_net () in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let r = Net.add_node ~name:"r" net (fun node ~in_link:_ p -> Net.forward node p) in
  let got = ref false in
  let b = Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ _ -> got := true) in
  ignore (Net.duplex net a r ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:plain_qdisc);
  ignore (Net.duplex net r b ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:plain_qdisc);
  Net.compute_routes net;
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr ());
  Sim.run sim;
  Alcotest.(check bool) "delivered over two hops" true !got

let shortest_path_chosen () =
  let sim, net = mk_net () in
  ignore sim;
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun node ~in_link:_ p -> Net.forward node p) in
  let r1 = Net.add_node ~name:"r1" net (fun node ~in_link:_ p -> Net.forward node p) in
  let r2 = Net.add_node ~name:"r2" net (fun node ~in_link:_ p -> Net.forward node p) in
  let b = Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ _ -> ()) in
  (* Long path a-r1-r2-b and a direct short path a-b. *)
  ignore (Net.duplex net a r1 ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:plain_qdisc);
  ignore (Net.duplex net r1 r2 ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:plain_qdisc);
  ignore (Net.duplex net r2 b ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:plain_qdisc);
  let direct, _ = Net.duplex net a b ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:plain_qdisc in
  Net.compute_routes net;
  match Net.route_for a b_addr with
  | Some link -> Alcotest.(check int) "direct link" (Net.link_id direct) (Net.link_id link)
  | None -> Alcotest.fail "no route"

(* Routes on random directed graphs, recomputed after more links are
   added, equal a plain per-source BFS whose ties go to the
   earliest-created link.  Many nodes have a single out-link, so this
   holds the single-homed shortcut in [compute_routes] (copying the
   neighbour's table) to the search it replaces, including neighbours
   that are themselves single-homed or reach nothing, and self-loops. *)
let reference_routes net =
  let nodes = Array.of_list (Net.nodes net) in
  let n = Array.length nodes in
  Array.map
    (fun source ->
      let hop = Array.make n None in
      let seen = Array.make n false in
      seen.(Net.node_id source) <- true;
      let queue = Queue.create () in
      Queue.push source queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        List.iter
          (fun link ->
            let v = Net.link_dst link in
            if not seen.(Net.node_id v) then begin
              seen.(Net.node_id v) <- true;
              hop.(Net.node_id v) <- (if u == source then Some link else hop.(Net.node_id u));
              Queue.push v queue
            end)
          (Net.links_out_of u)
      done;
      Array.map (fun v -> Option.map Net.link_id hop.(Net.node_id v)) nodes)
    nodes

(* Every (source, addressed destination) route equals [reference_routes]'. *)
let routes_match_reference net =
  let want = reference_routes net in
  let all = Array.of_list (Net.nodes net) in
  Array.for_all
    (fun (i, source) ->
      Array.for_all
        (fun (j, dst) ->
          match Net.node_addr dst with
          | None -> true
          | Some addr -> Option.map Net.link_id (Net.route_for source addr) = want.(i).(j))
        (Array.mapi (fun j d -> (j, d)) all))
    (Array.mapi (fun i s -> (i, s)) all)

let routes_match_bfs =
  QCheck.Test.make ~name:"net: routes match a per-source BFS" ~count:300
    QCheck.(triple (int_range 1 10) (list_of_size Gen.(int_range 0 30) (pair small_nat small_nat)) small_nat)
    (fun (n, edges, split) ->
      let _, net = mk_net () in
      let nodes =
        Array.init n (fun i ->
            let addr = if i mod 4 = 3 then None else Some (Wire.Addr.of_int (i + 1)) in
            Net.add_node ?addr ~name:(string_of_int i) net (fun _ ~in_link:_ _ -> ()))
      in
      let add (a, b) =
        ignore
          (Net.link_oneway net ~src:nodes.(a mod n) ~dst:nodes.(b mod n) ~bandwidth_bps:1e6
             ~delay:0.001 ~qdisc:(plain_qdisc ()))
      in
      let check () =
        Net.compute_routes net;
        routes_match_reference net
      in
      let k = split mod (List.length edges + 1) in
      List.iteri (fun i e -> if i < k then add e) edges;
      let first = check () in
      List.iteri (fun i e -> if i >= k then add e) edges;
      first && check ())

(* Every [Topology] generator's routes, with hosts attached where the
   scale generators leave that to the caller, equal a per-source BFS.
   Hosts are single-homed, so this covers the copied tables, which start
   filled with the host's one route and are cleared where the neighbour
   reaches nothing. *)
let topology_routes_match_bfs () =
  let q ~bandwidth_bps:_ = plain_qdisc () in
  let sim = Sim.create () in
  let check name net = Alcotest.(check bool) name true (routes_match_reference net) in
  let with_hosts net routers =
    Array.iteri
      (fun i router ->
        ignore
          (Topology.attach_host ~make_qdisc:q ~net ~router
             ~addr:(Wire.Addr.of_int (0x0d000000 + i))
             ~name:("host" ^ string_of_int i) ()))
      routers;
    Net.compute_routes net;
    net
  in
  check "dumbbell" (Topology.dumbbell ~n_attackers:5 ~with_colluder:true ~make_qdisc:q sim).Topology.net;
  let scale name (t : Topology.scale) = check name (with_hosts t.s_net t.s_routers) in
  scale "fanin" (Topology.fanin ~make_qdisc:q sim);
  scale "parking lot" (Topology.parking_lot ~make_qdisc:q sim);
  scale "power law" (Topology.power_law ~routers:24 ~seed:3 ~make_qdisc:q sim)

let hop_limit_drops_loops () =
  let sim, net = mk_net () in
  (* Two routers bouncing every packet back at each other: the hop budget
     must terminate the loop. *)
  let dropped = ref 0 in
  Net.set_trace net (Some (function Net.Hops_exceeded _ -> incr dropped | _ -> ()));
  let bounce node ~in_link p =
    (* Send back where it came from — the worst routing loop. *)
    match in_link with
    | Some l ->
        let back =
          List.find (fun out -> Net.node_id (Net.link_dst out) = Net.node_id (Net.link_src l))
            (Net.links_out_of node)
        in
        Net.forward_on node back p
    | None -> ()
  in
  let r1 = Net.add_node ~name:"r1" net bounce in
  let r2 = Net.add_node ~name:"r2" net bounce in
  let l12, _ = Net.duplex net r1 r2 ~bandwidth_bps:1e9 ~delay:0.0001 ~qdisc:plain_qdisc in
  Net.compute_routes net;
  let p = mk_packet ~src:(Wire.Addr.of_int 9) ~dst:b_addr () in
  Net.forward_on r1 l12 p;
  Sim.run sim;
  Alcotest.(check int) "loop terminated" 1 !dropped;
  Alcotest.(check int) "hops exhausted" 0 p.Wire.Packet.hops

let no_route_traced () =
  let sim, net = mk_net () in
  let traced = ref 0 in
  Net.set_trace net (Some (function Net.No_route _ -> incr traced | _ -> ()));
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  Net.compute_routes net;
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr ());
  Sim.run sim;
  Alcotest.(check int) "no-route event" 1 !traced

let queue_drop_traced () =
  let sim, net = mk_net () in
  let drops = ref 0 in
  Net.set_trace net (Some (function Net.Queue_drop _ -> incr drops | _ -> ()));
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let b = Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ _ -> ()) in
  ignore
    (Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:1e3 ~delay:0.01
       ~qdisc:(Droptail.create ~capacity_bytes:1500 ()));
  Net.compute_routes net;
  for _ = 1 to 5 do
    Net.originate a (mk_packet ~src:a_addr ~dst:b_addr ())
  done;
  Sim.run ~until:1. sim;
  Alcotest.(check bool) (Printf.sprintf "%d drops" !drops) true (!drops >= 3)

let duplicate_address_rejected () =
  let _, net = mk_net () in
  ignore (Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()));
  match Net.add_node ~addr:a_addr ~name:"dup" net (fun _ ~in_link:_ _ -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate accepted"

let bad_link_params_rejected () =
  let _, net = mk_net () in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let b = Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ _ -> ()) in
  (match Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:0. ~delay:0.01 ~qdisc:(plain_qdisc ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero bandwidth accepted");
  (match Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:1e6 ~delay:(-0.1) ~qdisc:(plain_qdisc ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative delay accepted");
  match Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:1e6 ~delay:nan ~qdisc:(plain_qdisc ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN delay accepted"

let find_node_by_addr () =
  let _, net = mk_net () in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  (match Net.find_node_by_addr net a_addr with
  | Some n -> Alcotest.(check bool) "found the node" true (n == a)
  | None -> Alcotest.fail "not found");
  Alcotest.(check bool) "absent" true (Net.find_node_by_addr net b_addr = None)

(* --- Topology builders ------------------------------------------------- *)

let dumbbell_shape () =
  let sim = Sim.create () in
  let topo =
    Topology.dumbbell ~n_attackers:3 ~with_colluder:true
      ~make_qdisc:(fun ~bandwidth_bps:_ -> plain_qdisc ())
      sim
  in
  Alcotest.(check int) "users" 10 (Array.length topo.Topology.users);
  Alcotest.(check int) "attackers" 3 (Array.length topo.Topology.attackers);
  Alcotest.(check bool) "colluder" true (topo.Topology.colluder <> None);
  (* Every user routes to the destination via the left router's bottleneck. *)
  Array.iter
    (fun u ->
      match Net.route_for u Topology.destination_addr with
      | Some _ -> ()
      | None -> Alcotest.fail "user lacks route")
    topo.Topology.users;
  match Net.route_for topo.Topology.left Topology.destination_addr with
  | Some link ->
      Alcotest.(check int) "left routes via bottleneck" (Net.link_id topo.Topology.bottleneck)
        (Net.link_id link)
  | None -> Alcotest.fail "left router lacks route"

let dumbbell_end_to_end_rtt () =
  (* One packet each way should take ~30 ms one-way at 3 hops x 10 ms plus
     transmission times: the paper's 60 ms RTT. *)
  let sim = Sim.create () in
  let topo =
    Topology.dumbbell ~n_attackers:0 ~make_qdisc:(fun ~bandwidth_bps:_ -> plain_qdisc ()) sim
  in
  List.iter (fun r -> Net.set_handler r (fun node ~in_link:_ p -> Net.forward node p))
    [ topo.Topology.left; topo.Topology.right ];
  let arrival = ref 0. in
  Net.set_handler topo.Topology.destination (fun _ ~in_link:_ _ -> arrival := Sim.now sim);
  Net.originate topo.Topology.users.(0)
    (mk_packet ~src:(Topology.user_addr 0) ~dst:Topology.destination_addr ~bytes:40 ());
  Sim.run sim;
  Alcotest.(check bool)
    (Printf.sprintf "one-way %.4fs ≈ 30ms" !arrival)
    true
    (!arrival > 0.030 && !arrival < 0.032)

(* Regression for the [Net.min_poll_delay] floor: a token-bucket-style
   qdisc that holds a packet and claims readiness *now* yet refuses every
   dequeue (its tokens perpetually round to just under one packet) must
   not spin the event loop at a fixed virtual instant.  With the floor,
   the transmitter re-polls every [min_poll_delay]; without it this test
   would hang at time 0. *)
let unservable_qdisc_does_not_spin () =
  let sim, net = mk_net () in
  let held = ref None in
  let stuck_bucket =
    Qdisc.make_custom ~name:"stuck-token-bucket"
      ~enqueue:(fun ~now:_ p ->
        held := Some p;
        true)
      ~dequeue:(fun ~now:_ -> Qdisc.none)
      ~next_ready:(fun ~now -> if !held = None then infinity else now)
      ~packet_count:(fun () -> if !held = None then 0 else 1)
      ~byte_count:(fun () ->
        match !held with None -> 0 | Some p -> Wire.Packet.size p)
      ()
  in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let b = Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ _ -> ()) in
  ignore (Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:stuck_bucket);
  Net.compute_routes net;
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr ());
  let horizon = 1000. *. Net.min_poll_delay in
  Sim.run ~until:horizon sim;
  Alcotest.(check (float 1e-12)) "clock reached horizon" horizon (Sim.now sim);
  (* One poll per min_poll_delay tick plus bookkeeping — not an unbounded
     spin.  (A zero-delay re-poll would never let the clock advance.) *)
  Alcotest.(check bool)
    (Printf.sprintf "bounded polling (%d events)" (Sim.events_processed sim))
    true
    (Sim.events_processed sim <= 1100)

(* --- The link pipeline ---------------------------------------------------- *)

(* A two-hop line a -> r -> b whose a->r link runs a scripted fault hook:
   pass, lose, duplicate, a 12-unit delay that the next packet overtakes
   (it is only 8 units behind on the wire), three passes in a row (so
   several packets propagate at once), another duplicate, a 30-unit delay,
   pass and lose.  a->r goes down mid-serialization with packets
   propagating and comes back up; r->b does the same with a packet queued.
   A timer fires every unit, each scheduled 10 units ahead, and logs itself
   when it lands on the instant of an arrival that came first: that pins
   the sequence-number tie-break of every delivery.  Every time is a whole
   number of units of 1/1024 s, exact in binary, so those ties are real.
   Returns one line per trace event (or, untraced, per arrival and timer),
   with times in units and packet ids relative to the first packet sent. *)
let link_pipeline_trace ~traced =
  let u = 1. /. 1024. in
  let sim, net = mk_net () in
  let log = Buffer.create 4096 in
  let base = ref 0 in
  let last_rx = ref nan in
  let line tag name p =
    if tag = "rx" then last_rx := Sim.now sim;
    Printf.bprintf log "%g %s %s %d\n" (Sim.now sim /. u) tag name (p.Wire.Packet.id - !base)
  in
  let rec tick () =
    if Sim.now sim = !last_rx then Printf.bprintf log "%g tick\n" (Sim.now sim /. u);
    if Sim.now sim < 160. *. u then Sim.schedule sim ~delay:(10. *. u) tick
  in
  for k = 1 to 10 do
    Sim.schedule_at sim ~time:(float_of_int k *. u) tick
  done;
  let arrive node ~in_link:_ p = if not traced then line "rx" (Net.node_name node) p in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let r =
    Net.add_node ~name:"r" net (fun node ~in_link p ->
        arrive node ~in_link p;
        Net.forward node p)
  in
  let b = Net.add_node ~addr:b_addr ~name:"b" net arrive in
  (* 1000 bytes serialize in 8 units on a->r and 4 on r->b. *)
  let ar =
    Net.link_oneway net ~src:a ~dst:r ~bandwidth_bps:1_024_000. ~delay:(20. *. u)
      ~qdisc:(plain_qdisc ())
  in
  let rb =
    Net.link_oneway net ~src:r ~dst:b ~bandwidth_bps:2_048_000. ~delay:(4. *. u)
      ~qdisc:(plain_qdisc ())
  in
  Net.compute_routes net;
  let link_name l = if l == ar then "ar" else "rb" in
  if traced then
    Net.set_trace net
      (Some
         (function
         | Net.Transmit (l, p) -> line "tx" (link_name l) p
         | Net.Link_fault (l, p) -> line "fault" (link_name l) p
         | Net.Deliver (n, p) -> line "rx" (Net.node_name n) p
         | Net.Queue_drop (l, p) -> line "drop" (link_name l) p
         | Net.Hops_exceeded (n, p) | Net.No_route (n, p) -> line "lost" (Net.node_name n) p));
  let script =
    [| Net.Fault_pass; Fault_lose; Fault_dup; Fault_delay (12. *. u); Fault_pass; Fault_pass;
       Fault_pass; Fault_dup; Fault_delay (30. *. u); Fault_pass; Fault_lose |]
  in
  let n = ref 0 in
  Net.link_set_fault ar
    (Some
       (fun _ ->
         let f = script.(!n mod Array.length script) in
         incr n;
         f));
  let send bytes = Net.originate a (mk_packet ~src:a_addr ~dst:b_addr ~bytes ()) in
  base := (mk_packet ~src:a_addr ~dst:b_addr ()).Wire.Packet.id + 1;
  for _ = 1 to 10 do
    send 1000
  done;
  let at k f = Sim.schedule_at sim ~time:(k *. u) f in
  at 100. (fun () ->
      for _ = 1 to 3 do
        send 500
      done);
  at 21. (fun () -> Net.link_set_up ar false);
  at 47. (fun () -> Net.link_set_up ar true);
  at 46. (fun () -> Net.link_set_up rb false);
  at 50. (fun () -> Net.link_set_up rb true);
  Sim.run sim;
  Printf.bprintf log "end %g events %d pending %d\n" (Sim.now sim /. u) (Sim.events_processed sim)
    (Sim.pending sim);
  Buffer.contents log

(* Recorded from the closure-per-hop transmitter that preceded the
   in-flight rings; the pipeline must reproduce it event for event. *)
let link_pipeline_golden =
  {|0 tx ar 0
8 tx ar 1
8 fault ar 1
16 tx ar 2
16 fault ar 2
28 rx r 0
28 tx rb 0
28 tick
36 rx b 0
44 rx r 2
44 tx rb 2
44 rx r 10
44 tick
47 tx ar 3
47 fault ar 3
50 tx rb 10
52 rx b 2
55 tx ar 4
58 rx b 10
63 tx ar 5
71 tx ar 6
79 tx ar 7
79 fault ar 7
83 rx r 4
83 tx rb 4
83 tick
87 rx r 3
87 tick
87 tx ar 8
87 fault ar 8
87 tx rb 3
91 rx r 5
91 tick
91 rx b 4
91 tx rb 5
95 tx ar 9
95 rx b 3
99 rx r 6
99 tx rb 6
99 tick
99 rx b 5
103 tx ar 12
103 fault ar 12
107 rx r 7
107 tx rb 7
107 rx r 11
107 tick
107 tx ar 13
107 rx b 6
111 tx rb 11
111 tx ar 14
111 fault ar 14
115 rx b 7
119 rx b 11
123 rx r 9
123 tx rb 9
123 tick
131 rx r 13
131 tx rb 13
131 tick
131 rx b 9
137 rx b 13
145 rx r 8
145 tx rb 8
145 tick
153 rx b 8
end 169 events 221 pending 0
|}

let link_pipeline_matches_golden () =
  Alcotest.(check string) "traced" link_pipeline_golden (link_pipeline_trace ~traced:true);
  (* The untraced run delivers the same packets at the same instants. *)
  let rx_and_end =
    String.split_on_char '\n' link_pipeline_golden
    |> List.filter (fun l ->
           match String.split_on_char ' ' l with
           | _ :: ("rx" | "tick") :: _ | "end" :: _ -> true
           | _ -> false)
  in
  Alcotest.(check string) "untraced"
    (String.concat "\n" rx_and_end ^ "\n")
    (link_pipeline_trace ~traced:false)

(* A long, fast link keeps up to ~100 packets propagating at once, so its
   in-flight ring grows several times, once with its head mid-array (3 of
   the first 5 delivered before the next burst).  Every packet must still
   arrive in send order at its own serialization end plus the delay. *)
let inflight_ring_grows_in_order () =
  let sim, net = mk_net () in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let arrivals = ref [] in
  let b =
    Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ p ->
        arrivals := (p.Wire.Packet.id, Sim.now sim) :: !arrivals)
  in
  (* 1000 bytes take 1 ms at 8 Mb/s. *)
  let link = Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:8e6 ~delay:0.1 ~qdisc:(plain_qdisc ()) in
  Net.compute_routes net;
  let send n =
    let t0 = Sim.now sim in
    List.init n (fun k ->
        let p = mk_packet ~src:a_addr ~dst:b_addr () in
        Net.forward_on a link p;
        (p.Wire.Packet.id, t0 +. (float_of_int (k + 1) *. 0.001) +. 0.1))
  in
  let first = send 5 in
  Sim.run ~until:0.1035 sim;
  Alcotest.(check int) "three delivered" 3 (List.length !arrivals);
  let second = send 30 in
  Sim.run sim;
  let expected = first @ second and got = List.rev !arrivals in
  Alcotest.(check (list int)) "send order" (List.map fst expected) (List.map fst got);
  List.iter2
    (fun (_, want) (_, at) -> Alcotest.(check (float 1e-9)) "arrival time" want at)
    expected got;
  Alcotest.(check int) "nothing pending" 0 (Sim.pending sim)

(* Transmit completions ride one lane per distinct serialization time.
   Interleaved 40-, 1040- and 1500-byte packets, sent in bursts that
   queue and after idle gaps, each complete exactly [size * 8 /
   bandwidth] after their transmit starts, in send order, and arrive the
   link's delay after that.  The network makes one delivery lane and one
   transmit lane per packet size, nothing more. *)
let transmit_lanes () =
  let sim, net = mk_net () in
  let bw = 3e6 and delay = 0.0021 in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let arrivals = ref [] in
  let b =
    Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ p ->
        arrivals := (p.Wire.Packet.id, Sim.now sim) :: !arrivals)
  in
  let link = Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:bw ~delay ~qdisc:(plain_qdisc ()) in
  Net.compute_routes net;
  Alcotest.(check int) "no lane at set-up" 0 (Sim.lane_count sim);
  let starts = ref [] and completions = ref [] and sent = ref [] in
  Net.set_trace net
    (Some
       (function
       | Net.Transmit (_, p) ->
           starts := (p.Wire.Packet.id, Wire.Packet.size p, Sim.now sim) :: !starts
       | _ -> ()));
  Sim.set_probe sim
    (Some
       {
         Sim.pr_clock = (fun () -> 0.);
         pr_hit =
           (fun ~kind ~dt:_ ->
             if kind = Sim.Kind.net_transmit then completions := Sim.now sim :: !completions);
       });
  let sizes = [| 40; 1040; 1500 |] in
  for burst = 0 to 11 do
    Sim.schedule_at sim ~time:(float_of_int burst *. 0.0137) (fun () ->
        for k = 0 to burst do
          let p = mk_packet ~src:a_addr ~dst:b_addr ~bytes:sizes.((k + burst) mod 3) () in
          sent := p.Wire.Packet.id :: !sent;
          Net.forward_on a link p
        done)
  done;
  Sim.run sim;
  let sent = List.rev !sent and starts = List.rev !starts in
  let completions = List.rev !completions and arrivals = List.rev !arrivals in
  Alcotest.(check (list int)) "transmits in send order" sent (List.map (fun (id, _, _) -> id) starts);
  Alcotest.(check (list int)) "arrivals in send order" sent (List.map fst arrivals);
  Alcotest.(check int) "one completion per packet" (List.length sent) (List.length completions);
  List.iter2
    (fun (_, size, start) done_at ->
      Alcotest.(check (float 0.))
        "completion at start + size*8/bw" (start +. (float_of_int size *. 8. /. bw)) done_at)
    starts completions;
  List.iter2
    (fun done_at (_, at) -> Alcotest.(check (float 0.)) "arrival at completion + delay" (done_at +. delay) at)
    completions arrivals;
  Alcotest.(check int) "lanes: one delivery + one per size" (1 + Array.length sizes)
    (Sim.lane_count sim)

(* A steady [Fault_pass] hop with the trace off allocates no event record,
   closure, [Some] box or trace variant, and both its events ride lanes
   with no key of their own: the tx-done on the lane for the packet's
   serialization time, the delivery on the lane for the link's delay.
   What is left is two boxed floats, the new clock at each of the two
   events.  Measured 4.005 words per packet (6.003 while the tx-done was a
   [Sim.schedule_at] event, which boxed its time); the bound is exact,
   since a change here moves where minor collections fall in every run. *)
let steady_hop_minor_words () =
  let sim, net = mk_net () in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let b = Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ _ -> ()) in
  let link = Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:1e6 ~delay:0.020 ~qdisc:(plain_qdisc ()) in
  Net.compute_routes net;
  let n = 2_000 in
  let pkts = Array.init n (fun _ -> mk_packet ~src:a_addr ~dst:b_addr ()) in
  (* Warm up: make the lanes and grow their rings, the qdisc ring and the
     in-flight ring. *)
  Array.iter (fun p -> Net.forward_on a link p) (Array.sub pkts 0 (n / 2));
  Sim.run sim;
  Array.iter (fun p -> Net.forward_on a link p) (Array.sub pkts (n / 2) (n / 2));
  let before = Gc.minor_words () in
  Sim.run sim;
  let per_hop = (Gc.minor_words () -. before) /. float_of_int (n / 2) in
  Alcotest.(check bool) (Printf.sprintf "%.3f words/hop <= 4.01" per_hop) true (per_hop <= 4.01)

(* Routing a 100-attacker dumbbell (113 nodes, 224 links) allocates each
   node's route array and the BFS scratch, and every route through a link
   shares that link's one [Some link]: a [Some] per (source, destination)
   pair was 25k of the 40k words this took.  Route lookups allocate
   nothing, because NetFence's [stamp] calls [route_for] on every packet. *)
let route_table_words () =
  let sim = Sim.create () in
  let d =
    Topology.dumbbell ~n_attackers:100 ~make_qdisc:(fun ~bandwidth_bps:_ -> plain_qdisc ()) sim
  in
  let net = d.Topology.net in
  let before = Gc.minor_words () in
  Net.compute_routes net;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "compute_routes %.0f words <= 17000" words)
    true (words <= 17_000.);
  let dsts =
    Array.init 101 (fun i ->
        if i < 100 then Topology.attacker_addr i else Topology.destination_addr)
  in
  let nodes = Array.of_list (Net.nodes net) in
  let before = Gc.minor_words () in
  for i = 0 to Array.length nodes - 1 do
    for j = 0 to Array.length dsts - 1 do
      ignore (Sys.opaque_identity (Net.route_for nodes.(i) dsts.(j)))
    done
  done;
  Alcotest.(check (float 0.)) "route_for allocates nothing" 0. (Gc.minor_words () -. before);
  (* Routes still go the right way: the left router reaches the
     destination over the bottleneck. *)
  Alcotest.(check bool) "bottleneck route" true
    (match Net.route_for d.Topology.left Topology.destination_addr with
    | Some l -> l == d.Topology.bottleneck
    | None -> false)

let suite =
  [
    Alcotest.test_case "link latency" `Quick link_delivers_with_correct_latency;
    Alcotest.test_case "unservable qdisc no spin" `Quick unservable_qdisc_does_not_spin;
    Alcotest.test_case "serialization" `Quick link_serializes_back_to_back;
    Alcotest.test_case "multi-hop" `Quick multi_hop_routing;
    Alcotest.test_case "shortest path" `Quick shortest_path_chosen;
    QCheck_alcotest.to_alcotest routes_match_bfs;
    Alcotest.test_case "topology routes match bfs" `Quick topology_routes_match_bfs;
    Alcotest.test_case "hop limit" `Quick hop_limit_drops_loops;
    Alcotest.test_case "no route" `Quick no_route_traced;
    Alcotest.test_case "queue drops traced" `Quick queue_drop_traced;
    Alcotest.test_case "duplicate addr" `Quick duplicate_address_rejected;
    Alcotest.test_case "bad link params" `Quick bad_link_params_rejected;
    Alcotest.test_case "find by addr" `Quick find_node_by_addr;
    Alcotest.test_case "dumbbell shape" `Quick dumbbell_shape;
    Alcotest.test_case "dumbbell rtt" `Quick dumbbell_end_to_end_rtt;
    Alcotest.test_case "link pipeline golden" `Quick link_pipeline_matches_golden;
    Alcotest.test_case "in-flight ring growth" `Quick inflight_ring_grows_in_order;
    Alcotest.test_case "transmit lanes" `Quick transmit_lanes;
    Alcotest.test_case "steady hop minor words" `Quick steady_hop_minor_words;
    Alcotest.test_case "route table words" `Quick route_table_words;
  ]
