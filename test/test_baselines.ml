(* The comparison schemes: SIFF routers/hosts, pushback's allocation and
   identification machinery, and the plain-Internet glue. *)

let src = Wire.Addr.of_int 0x0a000001
let dst = Wire.Addr.of_int 0xc0a80001

(* --- SIFF router ---------------------------------------------------------- *)

let siff_marking_deterministic () =
  let sim = Sim.create () in
  let r = Siff.Router.create ~secret_master:"s" ~router_id:1 ~sim () in
  Alcotest.(check int) "stable" (Siff.Router.marking_bits r ~now:1. ~src ~dst)
    (Siff.Router.marking_bits r ~now:2. ~src ~dst)

let siff_marking_is_two_bits () =
  let sim = Sim.create () in
  let r = Siff.Router.create ~secret_master:"s" ~router_id:1 ~sim () in
  for i = 0 to 50 do
    let b = Siff.Router.marking_bits r ~now:1. ~src:(Wire.Addr.of_int i) ~dst in
    if b < 0 || b > 3 then Alcotest.failf "marking %d out of 2-bit range" b
  done

let siff_marking_rotates () =
  let sim = Sim.create () in
  let r = Siff.Router.create ~rotation_period:3. ~secret_master:"s" ~router_id:1 ~sim () in
  (* Across many (src,dst) pairs, markings in epoch 0 and epoch 2 must
     differ somewhere (2-bit values collide often, so check in bulk). *)
  let differs = ref false in
  for i = 0 to 63 do
    let a = Siff.Router.marking_bits r ~now:1. ~src:(Wire.Addr.of_int i) ~dst in
    let b = Siff.Router.marking_bits r ~now:7. ~src:(Wire.Addr.of_int i) ~dst in
    if a <> b then differs := true
  done;
  Alcotest.(check bool) "rotation changes markings" true !differs

(* The marking preimage lives in a per-router scratch buffer: a marking
   allocates only the boxed hash, not a per-packet string.  [src_of i] is
   the source of call [i]: one flow measures the memo's hit path, a fresh
   source per call its miss path. *)
let marking_words ~src_of =
  let iters = 4000 in
  let sim = Sim.create () in
  let r = Siff.Router.create ~secret_master:"s" ~router_id:1 ~sim () in
  ignore (Siff.Router.marking_bits r ~now:1. ~src:(src_of 0) ~dst);
  let w0 = Gc.minor_words () in
  for i = 1 to iters do
    ignore (Sys.opaque_identity (Siff.Router.marking_bits r ~now:1. ~src:(src_of i) ~dst))
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let check_marking_words name ~budget ~src_of =
  let per_call = marking_words ~src_of in
  if per_call > budget then
    Alcotest.failf "marking_bits (%s) allocates %.2f minor words/call (budget %g)" name per_call
      budget

let siff_marking_allocation_budget () =
  check_marking_words "one flow" ~budget:4. ~src_of:(fun _ -> src)

let siff_marking_miss_allocation () =
  check_marking_words "fresh sources" ~budget:4. ~src_of:(fun i ->
      Wire.Addr.of_int (0x0b000000 + i))

(* A memo hit computes no MAC: measured 0 words. *)
let siff_marking_hit_allocation () =
  check_marking_words "memo hit" ~budget:1. ~src_of:(fun _ -> src)

let siff_sim () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let sink _node ~in_link:_ _p = () in
  let a = Net.add_node ~addr:src ~name:"a" net sink in
  let r = Net.add_node ~name:"r" net sink in
  let b = Net.add_node ~addr:dst ~name:"b" net sink in
  let connect x y =
    ignore
      (Net.duplex net x y ~bandwidth_bps:10e6 ~delay:0.001 ~qdisc:(fun () ->
           Siff.Router.make_qdisc ~bandwidth_bps:10e6))
  in
  connect a r;
  connect r b;
  Net.compute_routes net;
  let obs = Obs.Counters.create ~name:"r" () in
  let router =
    Siff.Router.create ~rotation_period:3. ~obs ~secret_master:"s" ~router_id:7 ~sim ()
  in
  Net.set_handler r (Siff.Router.handler router);
  (sim, net, a, b, router, Obs.Counters.get obs)

let siff_exp_collects_markings () =
  let sim, _net, a, b, router, _ = siff_sim () in
  let got = ref None in
  Net.set_handler b (fun _ ~in_link:_ p -> got := p.Wire.Packet.siff);
  let siff = Wire.Siff_marking.exp_packet () in
  Net.originate a (Wire.Packet.make ~siff ~src ~dst (Wire.Packet.Raw 100));
  Sim.run sim;
  match !got with
  | Some m ->
      Alcotest.(check (option int)) "router marked"
        (Some (Siff.Router.marking_bits router ~now:0. ~src ~dst))
        (Wire.Siff_marking.marking_of m ~router:7)
  | None -> Alcotest.fail "explorer lost"

let siff_valid_dta_passes_invalid_dropped () =
  let sim, _net, a, b, router, count = siff_sim () in
  let delivered = ref 0 in
  Net.set_handler b (fun _ ~in_link:_ _ -> incr delivered);
  let good = Siff.Router.marking_bits router ~now:0. ~src ~dst in
  let siff = Wire.Siff_marking.dta ~markings:[ (7, good) ] in
  Net.originate a (Wire.Packet.make ~siff ~src ~dst (Wire.Packet.Raw 100));
  Sim.run sim;
  Alcotest.(check int) "valid delivered" 1 !delivered;
  let bad = Wire.Siff_marking.dta ~markings:[ (7, (good + 1) land 3) ] in
  Net.originate a (Wire.Packet.make ~siff:bad ~src ~dst (Wire.Packet.Raw 100));
  Sim.run sim;
  Alcotest.(check int) "invalid dropped" 1 !delivered;
  Alcotest.(check int) "drop counted" 1 (count Obs.Event.Siff_bad_marking);
  let unmarked = Wire.Siff_marking.dta ~markings:[ (8, good) ] in
  Net.originate a (Wire.Packet.make ~siff:unmarked ~src ~dst (Wire.Packet.Raw 100));
  Sim.run sim;
  Alcotest.(check int) "unmarked dropped" 1 !delivered;
  Alcotest.(check int) "no-marking drop counted" 1 (count Obs.Event.Siff_no_marking);
  Alcotest.(check int) "every packet counted in" 3 (count Obs.Event.Packets_in)

let siff_stale_marking_dies_after_two_epochs () =
  let sim, _net, a, b, router, _ = siff_sim () in
  let delivered = ref 0 in
  Net.set_handler b (fun _ ~in_link:_ _ -> incr delivered);
  let good = Siff.Router.marking_bits router ~now:0. ~src ~dst in
  (* Advance two 3 s epochs; the old marking should no longer verify
     (unless the 2-bit value collides by chance — pick a pair for which it
     does not). *)
  Sim.schedule_at sim ~time:7. (fun () -> ());
  Sim.run sim;
  let now = Sim.now sim in
  if Siff.Router.marking_bits router ~now ~src ~dst <> good
     && Siff.Router.marking_bits router ~now:(now -. 3.) ~src ~dst <> good then begin
    let siff = Wire.Siff_marking.dta ~markings:[ (7, good) ] in
    Net.originate a (Wire.Packet.make ~siff ~src ~dst (Wire.Packet.Raw 100));
    Sim.run sim;
    Alcotest.(check int) "stale dropped" 0 !delivered
  end

let siff_host_handshake_is_explorer () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let sink _node ~in_link:_ _p = () in
  let a = Net.add_node ~addr:src ~name:"a" net sink in
  let b = Net.add_node ~addr:dst ~name:"b" net sink in
  ignore
    (Net.duplex net a b ~bandwidth_bps:10e6 ~delay:0.001 ~qdisc:(fun () ->
         Siff.Router.make_qdisc ~bandwidth_bps:10e6));
  Net.compute_routes net;
  let seen = ref [] in
  Net.set_trace net
    (Some
       (function
       | Net.Transmit (_, p) -> begin
           match p.Wire.Packet.siff with
           | Some m -> seen := m.Wire.Siff_marking.flavor :: !seen
           | None -> ()
         end
       | _ -> ()));
  let host_a = Siff.Host.create ~policy:(Tva.Policy.client ()) ~node:a () in
  let _host_b = Siff.Host.create ~auto_reply:true ~policy:(Tva.Policy.allow_all ()) ~node:b () in
  Siff.Host.send_segment host_a ~dst
    { Wire.Tcp_segment.conn = 1; flags = Wire.Tcp_segment.Syn; seq = 0; ack = 0; payload = 0 };
  Sim.run ~until:1. sim;
  Alcotest.(check bool) "SYN went out as explorer" true
    (List.mem Wire.Siff_marking.Exp !seen)

let siff_host_data_uses_markings () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let sink _node ~in_link:_ _p = () in
  let a = Net.add_node ~addr:src ~name:"a" net sink in
  let r = Net.add_node ~name:"r" net sink in
  let b = Net.add_node ~addr:dst ~name:"b" net sink in
  let connect x y =
    ignore
      (Net.duplex net x y ~bandwidth_bps:10e6 ~delay:0.001 ~qdisc:(fun () ->
           Siff.Router.make_qdisc ~bandwidth_bps:10e6))
  in
  connect a r;
  connect r b;
  Net.compute_routes net;
  let router = Siff.Router.create ~secret_master:"s" ~router_id:99 ~sim () in
  Net.set_handler r (Siff.Router.handler router);
  let host_a = Siff.Host.create ~policy:(Tva.Policy.client ()) ~node:a () in
  let _host_b = Siff.Host.create ~auto_reply:true ~policy:(Tva.Policy.allow_all ()) ~node:b () in
  (* Raw request (EXP) then data: data must carry DTA markings. *)
  Siff.Host.send_raw host_a ~dst ~bytes:64;
  Sim.run ~until:1. sim;
  Alcotest.(check bool) "markings installed" true (Siff.Host.markings_for host_a ~dst <> None);
  let dta_seen = ref false in
  Net.set_trace net
    (Some
       (function
       | Net.Transmit (_, p) -> begin
           match p.Wire.Packet.siff with
           | Some { Wire.Siff_marking.flavor = Wire.Siff_marking.Dta; _ } -> dta_seen := true
           | _ -> ()
         end
       | _ -> ()));
  Siff.Host.send_raw host_a ~dst ~bytes:1000;
  Sim.run ~until:2. sim;
  Alcotest.(check bool) "data is DTA" true !dta_seen

(* --- SIFF marking memo -------------------------------------------------- *)

(* The reference model: the marking computed without the router's memo,
   the SipHash of the text preimage [secret_master ^ router_id ^ "|" ^
   epoch ^ "|"] then src and dst as 4 wire bytes. *)
let siff_uncached_bits ~epoch ~src ~dst =
  let wire a =
    String.init 4 (fun i -> Char.chr ((Wire.Addr.to_int a lsr (8 * (3 - i))) land 0xff))
  in
  let msg = Printf.sprintf "s7|%d|%s%s" epoch (wire src) (wire dst) in
  Int64.to_int (Crypto.Siphash.mac ~key:"SIFF marking key" msg)
  land ((1 lsl Wire.Siff_marking.bits_per_router) - 1)

(* How far a step moves the clock: not at all, within the epoch, past a
   128 s rotation, or onto the next epoch boundary exactly. *)
let advance now = function
  | 0 -> now
  | 1 -> now +. 0.5
  | 2 -> now +. 1.75
  | 3 -> now +. 130.
  | _ -> 128. *. (floor (now /. 128.) +. 1.)

let advance_gen =
  QCheck.Gen.frequencyl [ (3, 0); (3, 1); (2, 2); (1, 3); (1, 4) ]

(* A few hot sources that hit the memo, mixed with more distinct cold
   ones than it has slots, which evict and collide. *)
let memo_src_gen =
  QCheck.Gen.(map Wire.Addr.of_int (frequency [ (1, int_range 0 7); (2, int_range 0 100_000) ]))

(* One long-lived router under (clock advance, src, dst, op) steps.  Ops:
   0 [marking_bits]; 1 an EXP packet through the handler; 2-4 a DTA packet
   carrying the current epoch's marking, the previous epoch's, or
   arbitrary bits.  Markings, stamped EXP markings and DTA verdicts must
   equal the uncached model's at every step. *)
let siff_memo_matches_uncached =
  let step = QCheck.Gen.(quad advance_gen memo_src_gen (int_range 0 3) (int_range 0 4)) in
  let print steps =
    String.concat "; "
      (List.map
         (fun (a, s, d, op) -> Printf.sprintf "(%d,%d,%d,%d)" a (Wire.Addr.to_int s) d op)
         steps)
  in
  QCheck.Test.make ~name:"siff: memoized markings = uncached MAC" ~count:50
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 300 1000) step))
    (fun steps ->
      let sim = Sim.create () in
      let net = Net.create sim in
      let node = Net.add_node ~name:"r" net (fun _ ~in_link:_ _ -> ()) in
      let obs = Obs.Counters.create ~name:"r" () in
      let router = Siff.Router.create ~obs ~secret_master:"s" ~router_id:7 ~sim () in
      let handle = Siff.Router.handler router node ~in_link:None in
      let drops () =
        Obs.Counters.get obs Obs.Event.Siff_no_marking
        + Obs.Counters.get obs Obs.Event.Siff_bad_marking
      in
      let run_step (_, src, d, op) () =
        let now = Sim.now sim in
        let dst = Wire.Addr.of_int (0xc0a80000 + d) in
        let epoch = int_of_float (floor (now /. 128.)) in
        let expect = siff_uncached_bits ~epoch ~src ~dst in
        let fail what got want =
          QCheck.Test.fail_reportf "t=%g src=%d dst=%d: %s %d, uncached %d" now
            (Wire.Addr.to_int src) d what got want
        in
        match op with
        | 0 ->
            let got = Siff.Router.marking_bits router ~now ~src ~dst in
            if got <> expect then fail "marking_bits" got expect
        | 1 -> (
            let siff = Wire.Siff_marking.exp_packet () in
            handle (Wire.Packet.make ~siff ~src ~dst (Wire.Packet.Raw 100));
            match Wire.Siff_marking.marking_of siff ~router:7 with
            | Some got when got = expect -> ()
            | Some got -> fail "stamped" got expect
            | None -> fail "stamped nothing" (-1) expect)
        | _ ->
            let bits =
              match op with
              | 2 -> expect
              | 3 -> siff_uncached_bits ~epoch:(epoch - 1) ~src ~dst
              | _ -> (Wire.Addr.to_int src + d) land 3
            in
            let verified =
              bits = expect || (epoch > 0 && bits = siff_uncached_bits ~epoch:(epoch - 1) ~src ~dst)
            in
            let before = drops () in
            let siff = Wire.Siff_marking.dta ~markings:[ (7, bits) ] in
            handle (Wire.Packet.make ~siff ~src ~dst (Wire.Packet.Raw 100));
            let dropped = drops () - before in
            let want = Bool.to_int (not verified) in
            if dropped <> want then fail "DTA drops" dropped want
      in
      ignore
        (List.fold_left
           (fun now ((a, _, _, _) as st) ->
             let now = advance now a in
             Sim.schedule_at sim ~time:now (run_step st);
             now)
           0. steps);
      Sim.run sim;
      true)

(* --- Pushback -------------------------------------------------------------- *)

let pushback_qdisc_is_fifo_when_unlimited () =
  let sim = Sim.create () in
  let t = Pushback.create ~sim () in
  let q = Pushback.make_qdisc t ~bandwidth_bps:10e6 in
  let p1 = Wire.Packet.make ~src ~dst (Wire.Packet.Raw 100) in
  let p2 = Wire.Packet.make ~src ~dst (Wire.Packet.Raw 100) in
  ignore (Qdisc.enqueue q ~now:0. p1);
  ignore (Qdisc.enqueue q ~now:0. p2);
  (match Qdisc.dequeue_opt q ~now:0. with
  | Some p -> Alcotest.(check int) "fifo" p1.Wire.Packet.id p.Wire.Packet.id
  | None -> Alcotest.fail "empty");
  match Qdisc.dequeue_opt q ~now:0. with
  | Some p -> Alcotest.(check int) "fifo 2" p2.Wire.Packet.id p.Wire.Packet.id
  | None -> Alcotest.fail "empty"

let pushback_engages_and_protects () =
  (* Dumbbell, 10 attackers: within a few control intervals filters exist
     and the bottleneck drop rate falls. *)
  let sim = Sim.create ~seed:5 () in
  let controller = Pushback.create ~interval:0.5 ~sim () in
  let topo =
    Topology.dumbbell ~n_attackers:10
      ~make_qdisc:(fun ~bandwidth_bps -> Pushback.make_qdisc controller ~bandwidth_bps)
      sim
  in
  Pushback.install controller topo.Topology.left;
  Pushback.install controller topo.Topology.right;
  Array.iter
    (fun a ->
      let addr = match Net.node_addr a with Some x -> x | None -> assert false in
      let rec flood () =
        Net.originate a
          (Wire.Packet.make ~src:addr ~dst:Topology.destination_addr
             (Wire.Packet.Raw 1000));
        (* 2 Mb/s x 10 attackers = twice the bottleneck. *)
        Sim.schedule sim ~delay:0.004 flood
      in
      flood ())
    topo.Topology.attackers;
  Sim.run ~until:5. sim;
  Alcotest.(check bool) "filters installed" true (Pushback.active_filters controller > 0);
  (* With the flood clipped, the bottleneck should now be loafing: measure
     fresh drops over one more second. *)
  let stats = (Net.link_qdisc topo.Topology.bottleneck).Qdisc.stats in
  let drops_before = stats.Qdisc.dropped in
  Sim.run ~until:6. sim;
  let new_drops = stats.Qdisc.dropped - drops_before in
  Alcotest.(check bool) (Printf.sprintf "%d drops in final second" new_drops) true (new_drops < 200)

let pushback_releases_after_quiet () =
  let sim = Sim.create ~seed:5 () in
  let controller = Pushback.create ~interval:0.5 ~release_after:2 ~sim () in
  let topo =
    Topology.dumbbell ~n_attackers:5
      ~make_qdisc:(fun ~bandwidth_bps -> Pushback.make_qdisc controller ~bandwidth_bps)
      sim
  in
  Pushback.install controller topo.Topology.left;
  let stop_at = 3.0 in
  Array.iter
    (fun a ->
      let addr = match Net.node_addr a with Some x -> x | None -> assert false in
      let rec flood () =
        if Sim.now sim < stop_at then begin
          Net.originate a
            (Wire.Packet.make ~src:addr ~dst:Topology.destination_addr
               (Wire.Packet.Raw 1000));
          Sim.schedule sim ~delay:0.002 flood
        end
      in
      flood ())
    topo.Topology.attackers;
  Sim.run ~until:2.9 sim;
  Alcotest.(check bool) "filters during attack" true (Pushback.active_filters controller > 0);
  (* Attack ends at t=3; filters must age out within a few intervals once
     the upstream queues drain. *)
  Sim.run ~until:12. sim;
  Alcotest.(check int) "filters released" 0 (Pushback.active_filters controller)

(* --- Internet glue ----------------------------------------------------------- *)

let internet_host_roundtrip () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let sink _node ~in_link:_ _p = () in
  let a = Net.add_node ~addr:src ~name:"a" net sink in
  let b = Net.add_node ~addr:dst ~name:"b" net sink in
  ignore
    (Net.duplex net a b ~bandwidth_bps:10e6 ~delay:0.001 ~qdisc:(fun () ->
         Baseline.Internet.make_qdisc ~bandwidth_bps:10e6));
  Net.compute_routes net;
  let host_a = Baseline.Internet.Host.create ~node:a in
  let host_b = Baseline.Internet.Host.create ~node:b in
  let got = ref None in
  Baseline.Internet.Host.set_segment_handler host_b (fun ~src:from seg -> got := Some (from, seg));
  Baseline.Internet.Host.send_segment host_a ~dst
    { Wire.Tcp_segment.conn = 5; flags = Wire.Tcp_segment.Syn; seq = 0; ack = 0; payload = 0 };
  Sim.run sim;
  match !got with
  | Some (from, seg) ->
      Alcotest.(check bool) "from a" true (Wire.Addr.equal from src);
      Alcotest.(check int) "conn id" 5 seg.Wire.Tcp_segment.conn
  | None -> Alcotest.fail "segment lost"

let suite =
  [
    Alcotest.test_case "siff marking stable" `Quick siff_marking_deterministic;
    Alcotest.test_case "siff marking 2-bit" `Quick siff_marking_is_two_bits;
    Alcotest.test_case "siff marking rotates" `Quick siff_marking_rotates;
    Alcotest.test_case "siff explorer marked" `Quick siff_exp_collects_markings;
    Alcotest.test_case "siff dta verify/drop" `Quick siff_valid_dta_passes_invalid_dropped;
    Alcotest.test_case "siff stale marking" `Quick siff_stale_marking_dies_after_two_epochs;
    Alcotest.test_case "siff handshake explorer" `Quick siff_host_handshake_is_explorer;
    Alcotest.test_case "siff data dta" `Quick siff_host_data_uses_markings;
    Alcotest.test_case "pushback fifo" `Quick pushback_qdisc_is_fifo_when_unlimited;
    Alcotest.test_case "pushback engages" `Quick pushback_engages_and_protects;
    Alcotest.test_case "pushback releases" `Quick pushback_releases_after_quiet;
    Alcotest.test_case "internet host" `Quick internet_host_roundtrip;
    Alcotest.test_case "siff marking allocation" `Quick siff_marking_allocation_budget;
    Alcotest.test_case "siff marking miss allocation" `Quick siff_marking_miss_allocation;
    Alcotest.test_case "siff marking hit allocation" `Quick siff_marking_hit_allocation;
    QCheck_alcotest.to_alcotest siff_memo_matches_uncached;
  ]
