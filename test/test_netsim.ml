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

let mk_packet ~src ~dst ?(bytes = 1000) created =
  Wire.Packet.make ~src ~dst ~created (Wire.Packet.Raw bytes)

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
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr 0.);
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
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr 0.);
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr 0.);
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
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr 0.);
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
  let p = mk_packet ~src:(Wire.Addr.of_int 9) ~dst:b_addr 0. in
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
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr 0.);
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
    Net.originate a (mk_packet ~src:a_addr ~dst:b_addr 0.)
  done;
  Sim.run ~until:1. sim;
  Alcotest.(check bool) (Printf.sprintf "%d drops" !drops) true (!drops >= 3)

let limiter_blocks_packets () =
  let sim, net = mk_net () in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let got = ref 0 in
  let b = Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ _ -> incr got) in
  let link = Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:(plain_qdisc ()) in
  Net.compute_routes net;
  Net.link_set_limiter link (Some (fun _ -> false));
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr 0.);
  Sim.run sim;
  Alcotest.(check int) "blocked" 0 !got;
  Net.link_set_limiter link None;
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr (Sim.now sim));
  Sim.run sim;
  Alcotest.(check int) "released" 1 !got

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
  match Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:1e6 ~delay:(-0.1) ~qdisc:(plain_qdisc ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative delay accepted"

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
    (mk_packet ~src:(Topology.user_addr 0) ~dst:Topology.destination_addr ~bytes:40 0.);
  Sim.run sim;
  Alcotest.(check bool)
    (Printf.sprintf "one-way %.4fs ≈ 30ms" !arrival)
    true
    (!arrival > 0.030 && !arrival < 0.032)

let chain_shape () =
  let sim = Sim.create () in
  let chain =
    Topology.chain ~hops:4 ~make_qdisc:(fun ~bandwidth_bps:_ -> plain_qdisc ()) sim
  in
  Alcotest.(check int) "routers" 4 (Array.length chain.Topology.chain_routers);
  match Net.route_for chain.Topology.chain_source Topology.chain_destination_addr with
  | Some _ -> ()
  | None -> Alcotest.fail "chain not routed"

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
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr 0.);
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
  let send bytes = Net.originate a (mk_packet ~src:a_addr ~dst:b_addr ~bytes (Sim.now sim)) in
  base := (mk_packet ~src:a_addr ~dst:b_addr 0.).Wire.Packet.id + 1;
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
        let p = mk_packet ~src:a_addr ~dst:b_addr t0 in
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

(* A steady [Fault_pass] hop with the trace off allocates no event record,
   closure, [Some] box or trace variant.  What is left is boxed floats for
   its two events (a tx-done and a delivery): each due time is boxed to
   cross into [Sim], and firing boxes the new clock.  Measured 8.0 words
   per packet; the bound leaves 2 words of margin. *)
let steady_hop_minor_words () =
  let sim, net = mk_net () in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let b = Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ _ -> ()) in
  let link = Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:1e6 ~delay:0.020 ~qdisc:(plain_qdisc ()) in
  Net.compute_routes net;
  let n = 2_000 in
  let pkts = Array.init n (fun i -> mk_packet ~src:a_addr ~dst:b_addr (float_of_int i)) in
  (* Warm up: grow the qdisc ring, the in-flight ring and the heap. *)
  Array.iter (fun p -> Net.forward_on a link p) (Array.sub pkts 0 (n / 2));
  Sim.run sim;
  Array.iter (fun p -> Net.forward_on a link p) (Array.sub pkts (n / 2) (n / 2));
  let before = Gc.minor_words () in
  Sim.run sim;
  let per_hop = (Gc.minor_words () -. before) /. float_of_int (n / 2) in
  Alcotest.(check bool) (Printf.sprintf "%.1f words/hop <= 10" per_hop) true (per_hop <= 10.)

let suite =
  [
    Alcotest.test_case "link latency" `Quick link_delivers_with_correct_latency;
    Alcotest.test_case "unservable qdisc no spin" `Quick unservable_qdisc_does_not_spin;
    Alcotest.test_case "serialization" `Quick link_serializes_back_to_back;
    Alcotest.test_case "multi-hop" `Quick multi_hop_routing;
    Alcotest.test_case "shortest path" `Quick shortest_path_chosen;
    Alcotest.test_case "hop limit" `Quick hop_limit_drops_loops;
    Alcotest.test_case "no route" `Quick no_route_traced;
    Alcotest.test_case "queue drops traced" `Quick queue_drop_traced;
    Alcotest.test_case "limiter" `Quick limiter_blocks_packets;
    Alcotest.test_case "duplicate addr" `Quick duplicate_address_rejected;
    Alcotest.test_case "bad link params" `Quick bad_link_params_rejected;
    Alcotest.test_case "find by addr" `Quick find_node_by_addr;
    Alcotest.test_case "dumbbell shape" `Quick dumbbell_shape;
    Alcotest.test_case "dumbbell rtt" `Quick dumbbell_end_to_end_rtt;
    Alcotest.test_case "chain shape" `Quick chain_shape;
    Alcotest.test_case "link pipeline golden" `Quick link_pipeline_matches_golden;
    Alcotest.test_case "in-flight ring growth" `Quick inflight_ring_grows_in_order;
    Alcotest.test_case "steady hop minor words" `Quick steady_hop_minor_words;
  ]
