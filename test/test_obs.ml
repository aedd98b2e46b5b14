(* Observability: the counter registry, the trace ring, the event-loop
   profiler, the export surfaces, and — most importantly — conservation
   properties tying the obs counters to what the datapath actually did. *)

let ev snap name e =
  match List.assoc_opt name snap with
  | None -> 0
  | Some arr -> arr.(Obs.Event.to_int e)

(* --- Counters ------------------------------------------------------------ *)

let counters_basics () =
  let c = Obs.Counters.create ~name:"c" () in
  Alcotest.(check bool) "not nop" false (Obs.Counters.is_nop c);
  Alcotest.(check bool) "nop is nop" true (Obs.Counters.is_nop Obs.Counters.nop);
  Obs.Counters.incr c Obs.Event.Packets_in;
  Obs.Counters.incr c Obs.Event.Packets_in;
  Obs.Counters.add c Obs.Event.Demoted 5;
  Alcotest.(check int) "incr" 2 (Obs.Counters.get c Obs.Event.Packets_in);
  Alcotest.(check int) "add" 5 (Obs.Counters.get c Obs.Event.Demoted);
  Alcotest.(check int) "total" 7 (Obs.Counters.total c);
  (* the nop sink absorbs increments without being observable *)
  Obs.Counters.incr Obs.Counters.nop Obs.Event.Packets_in;
  Obs.Counters.reset c;
  Alcotest.(check int) "reset" 0 (Obs.Counters.total c)

let counters_registry_and_merge () =
  let reg = Obs.Counters.registry () in
  let a = Obs.Counters.register reg ~name:"a" in
  let b = Obs.Counters.register reg ~name:"b" in
  Alcotest.(check (list string)) "creation order"
    [ "a"; "b" ]
    (List.map Obs.Counters.name (Obs.Counters.registered reg));
  Alcotest.(check bool) "find" true
    (match Obs.Counters.find reg ~name:"b" with Some c -> c == b | None -> false);
  Obs.Counters.incr a Obs.Event.Transmitted;
  Obs.Counters.add b Obs.Event.Delivered 3;
  let s1 = Obs.Counters.snapshot_all reg in
  (* A second "run" with overlapping and fresh instances. *)
  let reg2 = Obs.Counters.registry () in
  let b2 = Obs.Counters.register reg2 ~name:"b" in
  let c2 = Obs.Counters.register reg2 ~name:"c" in
  Obs.Counters.add b2 Obs.Event.Delivered 4;
  Obs.Counters.incr c2 Obs.Event.Packets_in;
  let merged = Obs.Counters.merge_snaps s1 (Obs.Counters.snapshot_all reg2) in
  Alcotest.(check (list string)) "first-seen order then appendees"
    [ "a"; "b"; "c" ] (List.map fst merged);
  Alcotest.(check int) "pointwise sum" 7 (ev merged "b" Obs.Event.Delivered);
  Alcotest.(check int) "left-only survives" 1 (ev merged "a" Obs.Event.Transmitted);
  Alcotest.(check int) "right-only appended" 1 (ev merged "c" Obs.Event.Packets_in)

(* --- Trace ring ---------------------------------------------------------- *)

let record t i =
  Obs.Trace.record t ~time:(float_of_int i) ~node:i ~event:Obs.Event.Transmitted ~src:1 ~dst:2
    ~size:100

let trace_sampling_and_wraparound () =
  (* capacity rounds up to a power of two *)
  let t = Obs.Trace.create ~capacity:5 () in
  Alcotest.(check int) "pow2 capacity" 8 (Obs.Trace.capacity t);
  for i = 0 to 19 do
    record t i
  done;
  Alcotest.(check int) "seen all offers" 20 (Obs.Trace.seen t);
  Alcotest.(check int) "written all (sample=1)" 20 (Obs.Trace.written t);
  Alcotest.(check int) "ring holds the tail" 8 (Obs.Trace.length t);
  let times = ref [] in
  Obs.Trace.iter t (fun ~time ~node:_ ~event:_ ~src:_ ~dst:_ ~size:_ ->
      times := time :: !times);
  Alcotest.(check (list (float 0.))) "oldest surviving first"
    [ 12.; 13.; 14.; 15.; 16.; 17.; 18.; 19. ]
    (List.rev !times);
  (* 1-in-3 sampling keeps offers 0, 3, 6, ... *)
  let s = Obs.Trace.create ~capacity:64 ~sample:3 () in
  for i = 0 to 9 do
    record s i
  done;
  Alcotest.(check int) "seen" 10 (Obs.Trace.seen s);
  Alcotest.(check int) "1 in 3 written" 4 (Obs.Trace.written s);
  (* nop: recording is a no-op *)
  record Obs.Trace.nop 0;
  Alcotest.(check int) "nop seen" 0 (Obs.Trace.seen Obs.Trace.nop)

let trace_filter_and_formats () =
  let t =
    Obs.Trace.create ~capacity:16 ~filter:(fun e -> e = Obs.Event.Delivered) ()
  in
  record t 0;
  (* filtered out: does not advance the sampling phase either *)
  Alcotest.(check int) "filtered not seen" 0 (Obs.Trace.seen t);
  Obs.Trace.record t ~time:1.5 ~node:7 ~event:Obs.Event.Delivered ~src:3 ~dst:4 ~size:64;
  Alcotest.(check int) "kept" 1 (Obs.Trace.written t);
  let buf = Buffer.create 256 in
  Obs.Trace.to_jsonl ~node_name:(fun i -> Printf.sprintf "n%d" i) t buf;
  let line = String.trim (Buffer.contents buf) in
  Alcotest.(check string) "jsonl record"
    "{\"t\":1.500000000,\"node\":\"n7\",\"event\":\"delivered\",\"src\":3,\"dst\":4,\"size\":64}"
    line

(* --- Profiler ------------------------------------------------------------ *)

let profile_kinds () =
  let p = Obs.Profile.create ~clock:(fun () -> 0.) () in
  Obs.Profile.hit p ~kind:Sim.Kind.agent ~dt:0.5;
  Obs.Profile.hit p ~kind:Sim.Kind.agent ~dt:0.25;
  Obs.Profile.hit p ~kind:Sim.Kind.net_deliver ~dt:1.;
  Alcotest.(check int) "agent events" 2 (Obs.Profile.events p ~kind:Sim.Kind.agent);
  Alcotest.(check (float 1e-9)) "agent wall" 0.75 (Obs.Profile.wall_s p ~kind:Sim.Kind.agent);
  Alcotest.(check int) "total events" 3 (Obs.Profile.total_events p);
  let rows = Obs.Profile.kind_rows p in
  Alcotest.(check (list string)) "nonzero kinds in kind order"
    [ Sim.Kind.name Sim.Kind.net_deliver; Sim.Kind.name Sim.Kind.agent ]
    (List.map (fun (n, _, _, _) -> n) rows)

let profile_attach_counts_sim_events () =
  let sim = Sim.create () in
  let p = Obs.Profile.create ~clock:Unix.gettimeofday () in
  Obs.Profile.attach p sim;
  Sim.schedule sim ~delay:0.1 ~kind:Sim.Kind.agent (fun () -> ());
  Sim.schedule sim ~delay:0.2 (fun () -> ());
  Sim.run sim;
  Obs.Profile.detach sim;
  Alcotest.(check int) "agent kind" 1 (Obs.Profile.events p ~kind:Sim.Kind.agent);
  Alcotest.(check int) "default kind" 1 (Obs.Profile.events p ~kind:Sim.Kind.other);
  Sim.schedule sim ~delay:0.1 ~kind:Sim.Kind.agent (fun () -> ());
  Sim.run sim;
  Alcotest.(check int) "detached: no more hits" 1 (Obs.Profile.events p ~kind:Sim.Kind.agent)

(* --- Export -------------------------------------------------------------- *)

let export_null_markers () =
  Alcotest.(check string) "nan is null" "null"
    (Obs.Export.to_string (Obs.Export.number_or_null Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Obs.Export.to_string (Obs.Export.number_or_null Float.infinity));
  Alcotest.(check string) "finite passes" "0.5"
    (Obs.Export.to_string (Obs.Export.number_or_null 0.5));
  Alcotest.(check string) "escaping"
    "{\"a\\\"b\": [1, null, true]}"
    (Obs.Export.to_string
       (Obs.Export.Obj
          [ ("a\"b", Obs.Export.List [ Obs.Export.Int 1; Obs.Export.Null; Obs.Export.Bool true ]) ]))

let metrics_no_attempts_regression () =
  let m = Workload.Metrics.create () in
  (* The legacy accessor keeps its vacuous-truth value for renderers... *)
  Alcotest.(check (float 1e-9)) "legacy accessor" 1.0 (Workload.Metrics.fraction_completed m);
  (* ...but the export path can tell "nothing attempted" apart. *)
  Alcotest.(check bool) "opt is None" true (Workload.Metrics.fraction_completed_opt m = None);
  Workload.Metrics.record_start m;
  Alcotest.(check bool) "attempted but incomplete" true
    (Workload.Metrics.fraction_completed_opt m = Some 0.)

(* --- Flow-cache eviction statistics -------------------------------------- *)

let flow_cache_eviction_stats () =
  let obs = Obs.Counters.create ~name:"cache" () in
  let cache = Tva.Flow_cache.create ~obs ~max_entries:4 () in
  let insert i ~now =
    match
      Tva.Flow_cache.insert cache ~now ~src:(Wire.Addr.of_int (100 + i))
        ~dst:(Wire.Addr.of_int 1) ~nonce:i ~n_kb:10 ~t_sec:1 ~cap_ts:0
        ~packet_bytes:100
    with
    | Tva.Flow_cache.Inserted _ -> true
    | _ -> false
  in
  for i = 1 to 4 do
    Alcotest.(check bool) (Printf.sprintf "insert %d" i) true (insert i ~now:0.)
  done;
  Alcotest.(check int) "hwm at fill" 4 (Tva.Flow_cache.hwm cache);
  Alcotest.(check int) "no evictions yet" 0 (Tva.Flow_cache.evictions cache);
  (* All four entries' T windows passed: inserting reclaims one by one. *)
  for i = 5 to 6 do
    Alcotest.(check bool) (Printf.sprintf "insert %d reclaims" i) true (insert i ~now:10.)
  done;
  Alcotest.(check int) "two cursor evictions" 2 (Tva.Flow_cache.evictions cache);
  (* By now=20 everything left (two originals plus inserts 5 and 6, all
     with T=1) has expired. *)
  let swept = Tva.Flow_cache.sweep cache ~now:20. in
  Alcotest.(check int) "sweep reclaims the rest" 4 swept;
  Alcotest.(check int) "evictions total" 6 (Tva.Flow_cache.evictions cache);
  Alcotest.(check int) "counter mirrors evictions" 6 (Obs.Counters.get obs Obs.Event.Cache_evicted);
  Alcotest.(check int) "hwm survives eviction" 4 (Tva.Flow_cache.hwm cache);
  Alcotest.(check int) "size back down" 0 (Tva.Flow_cache.size cache);
  (* Explicit removal is not an eviction. *)
  (match
     Tva.Flow_cache.insert cache ~now:20. ~src:(Wire.Addr.of_int 200) ~dst:(Wire.Addr.of_int 1)
       ~nonce:9 ~n_kb:10 ~t_sec:1 ~cap_ts:0 ~packet_bytes:100
   with
  | Tva.Flow_cache.Inserted e -> Tva.Flow_cache.remove cache e
  | _ -> Alcotest.fail "insert into empty cache");
  Alcotest.(check int) "remove not counted" 6 (Tva.Flow_cache.evictions cache)

(* --- Qdisc high-water mark ----------------------------------------------- *)

let mk_packet ?(bytes = 1000) () =
  Wire.Packet.make ~src:(Wire.Addr.of_int 1) ~dst:(Wire.Addr.of_int 2)
    (Wire.Packet.Raw bytes)

let qdisc_hwm () =
  let q = Droptail.create ~capacity_bytes:10_000 () in
  Alcotest.(check int) "fresh hwm" 0 q.Qdisc.stats.Qdisc.hwm_packets;
  for _ = 1 to 3 do
    ignore (Qdisc.enqueue q ~now:0. (mk_packet ()))
  done;
  ignore (Qdisc.dequeue_opt q ~now:0.);
  ignore (Qdisc.enqueue q ~now:0. (mk_packet ()));
  (* depth went 1,2,3 then 2,3: the mark stays at the peak *)
  Alcotest.(check int) "hwm is the peak" 3 q.Qdisc.stats.Qdisc.hwm_packets;
  Alcotest.(check int) "current depth below" 3 (Qdisc.packet_count q);
  ignore (Qdisc.enqueue q ~now:0. (mk_packet ()));
  Alcotest.(check int) "new peak" 4 q.Qdisc.stats.Qdisc.hwm_packets

(* --- Conservation over a real run ---------------------------------------- *)

let obs_cfg =
  {
    Workload.Experiment.default with
    Workload.Experiment.scheme = Workload.Scheme.tva ~params:Workload.Scenario.sim_params ();
    n_attackers = 5;
    attack = Workload.Experiment.Legacy_flood { rate_bps = 1e6 };
    transfers_per_user = 3;
    max_time = 15.;
  }

let run_with_obs () =
  let r = Workload.Experiment.run ~obs:Workload.Experiment.obs_default obs_cfg in
  match r.Workload.Experiment.obs with
  | Some report -> (r, report)
  | None -> Alcotest.fail "obs run produced no report"

let routers = [ "left-router"; "right-router" ]

let conservation_packet_classes () =
  let _, report = run_with_obs () in
  let snap = report.Obs.Report.counters in
  List.iter
    (fun name ->
      let c e = ev snap name e in
      Alcotest.(check bool) (name ^ " saw traffic") true (c Obs.Event.Packets_in > 0);
      Alcotest.(check int)
        (name ^ ": in = legacy + request + regular")
        (c Obs.Event.Packets_in)
        (c Obs.Event.Legacy_in + c Obs.Event.Request_in + c Obs.Event.Regular_in);
      Alcotest.(check int)
        (name ^ ": demoted = sum of reasons")
        (c Obs.Event.Demoted)
        (c Obs.Event.Demoted_bad_cap + c Obs.Event.Demoted_cap_expired + c Obs.Event.Demoted_no_cap
       + c Obs.Event.Demoted_bytes_exhausted + c Obs.Event.Demoted_cache_full
       + c Obs.Event.Demoted_over_limit + c Obs.Event.Demoted_header_full))
    routers

let conservation_forwarding () =
  (* Every packet handed to a router is accounted for: transmitted on some
     out-link, dropped by a qdisc (or unroutable), or still queued when the
     run ended. *)
  let _, report = run_with_obs () in
  let snap = report.Obs.Report.counters in
  List.iter
    (fun name ->
      let c e = ev snap name e in
      let residual =
        List.fold_left
          (fun acc (l : Obs.Report.link_row) ->
            if String.length l.l_name >= String.length name + 2
               && String.sub l.l_name 0 (String.length name + 2) = name ^ "->"
            then
              (* the first row is the link's root qdisc; nested rows would
                 double-count *)
              acc + (List.hd l.l_qdiscs).Obs.Report.q_residual_packets
            else acc)
          0 report.Obs.Report.links
      in
      Alcotest.(check int)
        (name ^ ": delivered = transmitted + drops + residual")
        (c Obs.Event.Delivered)
        (c Obs.Event.Transmitted + c Obs.Event.Queue_drop_request + c Obs.Event.Queue_drop_regular
       + c Obs.Event.Queue_drop_legacy + c Obs.Event.No_route + c Obs.Event.Hops_exceeded
       + residual))
    routers

let conservation_caches () =
  let _, report = run_with_obs () in
  let snap = report.Obs.Report.counters in
  let expected_capacity =
    Tva.Params.flow_cache_capacity Workload.Scenario.sim_params
      ~link_bps:obs_cfg.Workload.Experiment.bottleneck_bps
  in
  Alcotest.(check int) "one cache row per router" 2 (List.length report.Obs.Report.caches);
  List.iter
    (fun (row : Obs.Report.cache_row) ->
      Alcotest.(check int)
        (row.c_router ^ ": Sec 3.6 provisioning")
        expected_capacity row.c_capacity;
      Alcotest.(check bool) (row.c_router ^ ": size within bound") true
        (row.c_size <= row.c_capacity);
      Alcotest.(check bool) (row.c_router ^ ": hwm within bound") true
        (row.c_size <= row.c_hwm && row.c_hwm <= row.c_capacity);
      Alcotest.(check int)
        (row.c_router ^ ": evictions mirror counter")
        (ev snap row.c_router Obs.Event.Cache_evicted)
        row.c_evictions;
      Alcotest.(check int)
        (row.c_router ^ ": inserts cover occupancy peak")
        row.c_hwm
        (min (ev snap row.c_router Obs.Event.Cache_inserted) row.c_capacity))
    report.Obs.Report.caches

let obs_counters_do_not_perturb_results () =
  let bare = Workload.Experiment.run obs_cfg in
  let observed, _ = run_with_obs () in
  Alcotest.(check (float 0.)) "fraction identical" bare.Workload.Experiment.fraction_completed
    observed.Workload.Experiment.fraction_completed;
  Alcotest.(check (float 0.)) "avg time identical" bare.Workload.Experiment.avg_transfer_time
    observed.Workload.Experiment.avg_transfer_time;
  Alcotest.(check (float 0.)) "sim end identical" bare.Workload.Experiment.sim_end
    observed.Workload.Experiment.sim_end;
  Alcotest.(check int) "event count identical" bare.Workload.Experiment.events
    observed.Workload.Experiment.events

(* --- Demotions vs the host protocol -------------------------------------- *)

let src = Wire.Addr.of_int 0x0a000001
let dst = Wire.Addr.of_int 0x0a000002

(* The 4-node TVA line of test_tva, with obs counters on both routers. *)
let demotions_match_host_echoes () =
  let sim = Sim.create ~seed:77 () in
  let net = Net.create sim in
  let params = Tva.Params.default in
  let sink _node ~in_link:_ _p = () in
  let a = Net.add_node ~addr:src ~name:"a" net sink in
  let r1 = Net.add_node ~name:"r1" net sink in
  let r2 = Net.add_node ~name:"r2" net sink in
  let b = Net.add_node ~addr:dst ~name:"b" net sink in
  let connect x y =
    ignore
      (Net.duplex net x y ~bandwidth_bps:10e6 ~delay:0.005 ~qdisc:(fun () ->
           Tva.Qdiscs.make ~params ~bandwidth_bps:10e6 ()))
  in
  connect a r1;
  connect r1 r2;
  connect r2 b;
  Net.compute_routes net;
  let obs1 = Obs.Counters.create ~name:"r1" () in
  let obs2 = Obs.Counters.create ~name:"r2" () in
  let router1 =
    Tva.Router.create ~obs:obs1 ~params ~secret_master:"r1" ~router_id:(Net.node_id r1) ~sim
      ~link_bps:10e6 ()
  in
  Net.set_handler r1 (Tva.Router.handler router1);
  let router2 =
    Tva.Router.create ~obs:obs2 ~params ~secret_master:"r2" ~router_id:(Net.node_id r2) ~sim
      ~link_bps:10e6 ()
  in
  Net.set_handler r2 (Tva.Router.handler router2);
  let host_a =
    Tva.Host.create ~params ~policy:(Tva.Policy.client ()) ~node:a ~rng:(Rng.split (Sim.rng sim))
      ()
  in
  let host_b =
    Tva.Host.create ~params ~auto_reply:true ~policy:(Tva.Policy.server ()) ~node:b
      ~rng:(Rng.split (Sim.rng sim)) ()
  in
  Tva.Host.send_raw host_a ~dst ~bytes:100;
  Sim.run ~until:1. sim;
  Tva.Host.send_raw host_a ~dst ~bytes:1000;
  Sim.run ~until:2. sim;
  let demoted () = Obs.Counters.get obs1 Obs.Event.Demoted + Obs.Counters.get obs2 Obs.Event.Demoted in
  Alcotest.(check int) "authorized traffic: zero demotions" 0 (demoted ());
  (* Route change: both routers lose their caches.  The next nonce-only
     packet is demoted exactly once (r1 demotes; r2 then counts it as
     legacy), and B sees exactly that many demoted arrivals. *)
  Tva.Router.flush_cache router1;
  Tva.Router.flush_cache router2;
  Tva.Host.send_raw host_a ~dst ~bytes:1000;
  Sim.run ~until:3. sim;
  Alcotest.(check int) "one demotion, counted once" 1 (demoted ());
  Alcotest.(check int) "r1 reason: no capability" 1
    (Obs.Counters.get obs1 Obs.Event.Demoted_no_cap);
  Alcotest.(check int) "obs matches router counters"
    ((Tva.Router.counters router1).Tva.Router.demotions
    + (Tva.Router.counters router2).Tva.Router.demotions)
    (demoted ());
  Alcotest.(check int) "obs matches host demotions_seen"
    (Tva.Host.counters host_b).Tva.Host.demotions_seen (demoted ())

(* --- The net-event bridge -------------------------------------------------- *)

(* a -> r -> b, with a slow, short r->b queue so bursts also drop: every
   packet yields Transmit and Deliver events, and a burst Queue_drops. *)
let bridge_net () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let a = Net.add_node ~addr:src ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let r = Net.add_node ~name:"r" net (fun node ~in_link:_ p -> Net.forward node p) in
  let b = Net.add_node ~addr:dst ~name:"b" net (fun _ ~in_link:_ _ -> ()) in
  ignore
    (Net.link_oneway net ~src:a ~dst:r ~bandwidth_bps:10e6 ~delay:0.001
       ~qdisc:(Droptail.create ~capacity_bytes:1_000_000 ()));
  ignore
    (Net.link_oneway net ~src:r ~dst:b ~bandwidth_bps:1e6 ~delay:0.001
       ~qdisc:(Droptail.create ~capacity_bytes:4_000 ()));
  Net.compute_routes net;
  (sim, net, a)

(* [bursts] bursts of 8 packets, each run to quiescence. *)
let drive (sim, _, a) ~bursts =
  for _ = 1 to bursts do
    for _ = 1 to 8 do
      Net.originate a (Wire.Packet.make ~src ~dst (Wire.Packet.Raw 1000))
    done;
    Sim.run sim
  done

(* One counter per node, by id. *)
let per_node net =
  let cs =
    Array.of_list
      (List.map (fun n -> Obs.Counters.create ~name:(Net.node_name n) ()) (Net.nodes net))
  in
  (cs, fun node -> cs.(Net.node_id node))

(* The bridge as [--stats] installs it, through [Harness.setup]: trace off
   and counters resolved by node id.  Against a no-op hook (both pay Net's
   event variant) it may add nothing per event. *)
let bridge_trace_off_allocates_nothing () =
  let bursts = 2_000 in
  let events = ref 0 in
  let minor_words install =
    let ((sim, net, _) as world) = bridge_net () in
    install sim net;
    let before = Gc.minor_words () in
    drive world ~bursts;
    Gc.minor_words () -. before
  in
  let hook = minor_words (fun _ net -> Net.set_trace net (Some (fun _ -> incr events))) in
  let bridged =
    minor_words (fun sim net ->
        ignore
          (Workload.Experiment.Harness.setup Workload.Experiment.obs_default ~sim ~net
             ~scheme:(Workload.Scheme.internet () sim)))
  in
  Alcotest.(check bool) "events seen" true (!events > 8 * bursts);
  let extra = (bridged -. hook) /. float_of_int !events in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f extra minor words per event (budget 0.01)" extra)
    true (extra <= 0.01)

let bridge_live_trace_records_every_event () =
  (* Reference: a plain hook mapping each event to the record the bridge
     should write, in the bridge's own classification. *)
  let expected = ref [] in
  let ((sim, net, _) as world) = bridge_net () in
  Net.set_trace net
    (Some
       (fun ev ->
         let node, event, (p : Wire.Packet.t) =
           match ev with
           | Net.Transmit (l, p) -> (Net.link_src l, Obs.Event.Transmitted, p)
           | Net.Deliver (n, p) -> (n, Obs.Event.Delivered, p)
           | Net.Queue_drop (l, p) -> (Net.link_src l, Obs.Bridge.drop_event p, p)
           | _ -> Alcotest.fail "unexpected net event"
         in
         expected :=
           ( Sim.now sim,
             Net.node_id node,
             Obs.Event.to_int event,
             Wire.Addr.to_int p.Wire.Packet.src,
             Wire.Addr.to_int p.Wire.Packet.dst,
             Wire.Packet.size p )
           :: !expected));
  drive world ~bursts:20;
  let expected = List.rev !expected in
  let ((_, net, _) as world) = bridge_net () in
  let trace = Obs.Trace.create ~capacity:4096 () in
  let cs, counters_for = per_node net in
  Obs.Bridge.install ~trace ~counters_for net;
  drive world ~bursts:20;
  let n = List.length expected in
  Alcotest.(check bool) "drops happened" true
    (Array.exists (fun c -> Obs.Counters.get c Obs.Event.Queue_drop_legacy > 0) cs);
  Alcotest.(check int) "seen = events" n (Obs.Trace.seen trace);
  Alcotest.(check int) "counted = events" n
    (Array.fold_left (fun acc c -> acc + Obs.Counters.total c) 0 cs);
  let got = ref [] in
  Obs.Trace.iter trace (fun ~time ~node ~event ~src ~dst ~size ->
      got := (time, node, event, src, dst, size) :: !got);
  Alcotest.(check bool) "records unchanged" true (List.rev !got = expected)

(* --- In-run telemetry: Timeseries / Detect / Flight (DESIGN.md §15) ----- *)

(* Counters are unconditional stores into a preallocated array, so a
   router with a live registry allocates, per cached-nonce packet, exactly
   the minor words it allocates with [nop]. *)
let router_counters_allocate_nothing () =
  let iters = 4000 in
  let words obs =
    let router =
      Tva.Router.create ~obs ~secret_master:"obs-alloc" ~router_id:1 ~sim:(Sim.create ())
        ~link_bps:1e9 ()
    in
    let src = Wire.Addr.of_int 0x0A000001 and dst = Wire.Addr.of_int 0x0B000001 in
    let req = Wire.Packet.make ~shim:(Wire.Cap_shim.request ()) ~src ~dst (Wire.Packet.Raw 64) in
    Tva.Router.process router ~in_interface:0 req;
    let precap =
      match req.Wire.Packet.shim with
      | Some { Wire.Cap_shim.kind = Wire.Cap_shim.Request { rev_precaps = [ pc ]; _ }; _ } -> pc
      | _ -> Alcotest.fail "no pre-capability"
    in
    let cap =
      Tva.Capability.cap_of_precap ~hash:(module Crypto.Keyed_hash.Fast) ~precap ~n_kb:1023
        ~t_sec:32
    in
    let regular caps =
      Wire.Packet.make
        ~shim:(Wire.Cap_shim.regular ~nonce:1L ~caps ~n_kb:1023 ~t_sec:32 ~renewal:false ())
        ~src ~dst (Wire.Packet.Raw 10)
    in
    Tva.Router.process router ~in_interface:0 (regular [ cap ]);
    let p = regular [] in
    Tva.Router.process router ~in_interface:0 p;
    let hits = (Tva.Router.counters router).Tva.Router.regular_cached in
    let before = Gc.minor_words () in
    for _ = 1 to iters do
      Tva.Router.process router ~in_interface:0 p
    done;
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "cached path" iters
      ((Tva.Router.counters router).Tva.Router.regular_cached - hits);
    words
  in
  let live = Obs.Counters.create ~name:"router" () in
  let bare = words Obs.Counters.nop and counted = words live in
  Alcotest.(check int) "registry ticked" (iters + 1) (Obs.Counters.get live Obs.Event.Nonce_hit);
  Alcotest.(check (float 0.)) "same minor words as nop" bare counted

(* A tick over counter cells is one unboxed float store per channel into
   preallocated rings. *)
let timeseries_tick_allocates_nothing () =
  let c = Obs.Counters.create ~name:"router" () in
  let ts = Obs.Timeseries.create ~interval:1.0 () in
  List.iter
    (fun (name, ev) ->
      Obs.Timeseries.add ts ~name ~mode:Obs.Timeseries.Cumulative
        (Obs.Timeseries.Cell (c, Obs.Event.to_int ev)))
    [
      ("nonce_hits", Obs.Event.Nonce_hit);
      ("demoted", Obs.Event.Demoted);
      ("packets", Obs.Event.Packets_in);
    ];
  Obs.Timeseries.tick ts ~time:1.0 (* freezes the channel set *);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Obs.Counters.incr c Obs.Event.Nonce_hit;
    Obs.Timeseries.tick ts ~time:1.0
  done;
  Alcotest.(check (float 0.)) "minor words" 0. (Gc.minor_words () -. before);
  Alcotest.(check int) "windows" 1001 (Obs.Timeseries.written ts)

let timeseries_basics () =
  let v = ref 0 and depth = ref 0 in
  let ts = Obs.Timeseries.create ~capacity:4 ~interval:0.5 () in
  Obs.Timeseries.add ts ~name:"count" ~mode:Obs.Timeseries.Cumulative
    (Obs.Timeseries.Int_fn (fun () -> !v));
  Obs.Timeseries.add ts ~name:"depth" ~mode:Obs.Timeseries.Level
    (Obs.Timeseries.Int_fn (fun () -> !depth));
  (match
     Obs.Timeseries.add ts ~name:"count" ~mode:Obs.Timeseries.Level
       (Obs.Timeseries.Int_fn (fun () -> 0))
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate channel name accepted");
  Alcotest.(check (list string)) "channels" [ "count"; "depth" ] (Obs.Timeseries.channels ts);
  let count = Option.get (Obs.Timeseries.chan_index ts "count") in
  let dep = Option.get (Obs.Timeseries.chan_index ts "depth") in
  v := 10;
  depth := 3;
  Obs.Timeseries.tick ts ~time:0.5;
  v := 25;
  depth := 7;
  Obs.Timeseries.tick ts ~time:1.0;
  (* cumulative channels store the delta since the previous tick (baseline
     0 at freeze); rate divides by the interval; level channels store the
     instantaneous value *)
  Alcotest.(check (float 0.)) "first delta" 10. (Obs.Timeseries.value ts ~chan:count 0);
  Alcotest.(check (float 0.)) "second delta" 15. (Obs.Timeseries.value ts ~chan:count 1);
  Alcotest.(check (float 0.)) "rate" 30. (Obs.Timeseries.rate ts ~chan:count 1);
  Alcotest.(check (float 0.)) "level" 7. (Obs.Timeseries.value ts ~chan:dep 1);
  Alcotest.(check (float 0.)) "last time" 1.0 (Obs.Timeseries.last_time ts);
  (* the channel set is frozen after the first tick *)
  (match
     Obs.Timeseries.add ts ~name:"late" ~mode:Obs.Timeseries.Level
       (Obs.Timeseries.Int_fn (fun () -> 0))
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "add after tick accepted");
  (* ring wrap: capacity 4, six ticks total -> the four newest survive *)
  for k = 3 to 6 do
    v := !v + k;
    Obs.Timeseries.tick ts ~time:(0.5 *. float_of_int k)
  done;
  Alcotest.(check int) "written counts all ticks" 6 (Obs.Timeseries.written ts);
  Alcotest.(check int) "ring holds capacity" 4 (Obs.Timeseries.length ts);
  Alcotest.(check (float 0.)) "oldest surviving window" 1.5 (Obs.Timeseries.time_at ts 0);
  Alcotest.(check (float 0.)) "newest window" 3.0 (Obs.Timeseries.time_at ts 3)

(* The documented hysteresis property: a signal that oscillates every
   window between a firing level (>= on) and a dip below it never flaps.
   With alpha = 1 (no smoothing), up = 1 and down = 2, strict alternation
   yields exactly one incident however long it runs and wherever the dip
   lands below the on threshold — a single dip window can never satisfy
   two consecutive clear windows. *)
let detect_no_flapping =
  QCheck.Test.make ~name:"detect: hysteresis absorbs single-window oscillation" ~count:100
    QCheck.(triple (int_range 1 50) (int_range 50 1000) (int_range 0 49))
    (fun (pairs, high, dip) ->
      let v = ref 0 in
      let ts = Obs.Timeseries.create ~capacity:256 ~interval:1.0 () in
      Obs.Timeseries.add ts ~name:"sig" ~mode:Obs.Timeseries.Level
        (Obs.Timeseries.Int_fn (fun () -> !v));
      let rules =
        [
          Obs.Detect.rule ~signal:`Value ~up:1 ~down:2 ~alpha:1.0 ~name:"osc" ~chan:"sig"
            ~on:50. ~off:10. ();
        ]
      in
      let det = Obs.Detect.create ~rules ts in
      let t = ref 0. in
      for _ = 1 to pairs do
        v := high;
        t := !t +. 1.;
        Obs.Timeseries.tick ts ~time:!t;
        Obs.Detect.step det;
        v := dip;
        t := !t +. 1.;
        Obs.Timeseries.tick ts ~time:!t;
        Obs.Detect.step det
      done;
      Obs.Detect.finish det ~time:!t;
      match Obs.Detect.incidents det with
      | [ inc ] ->
          inc.Obs.Detect.in_rule = "osc"
          && inc.Obs.Detect.in_onset = 1.
          && inc.Obs.Detect.in_open
          && inc.Obs.Detect.in_peak = float_of_int high
          && Obs.Detect.engage_recover (Obs.Detect.incidents det) = Some (1., !t -. 1., false)
      | incs -> QCheck.Test.fail_reportf "expected 1 incident, got %d" (List.length incs))

(* [Detect.engage_recover] against the fold the chaos harness ran over
   its report's incidents before the fold moved into [Detect]: first
   onset, latest clear minus it (NaN when an incident is still active,
   since its clear is NaN), and whether no incident stayed open.  Incidents come in
   three shapes: cleared, still active, and closed at run end as
   [Detect.finish] leaves them (clear = run end, still marked open). *)
let chaos_fold (incs : Obs.Detect.incident list) =
  match incs with
  | [] -> (None, None, true)
  | rows ->
      let onset =
        List.fold_left (fun a (r : Obs.Detect.incident) -> Float.min a r.in_onset) infinity rows
      in
      let clear =
        List.fold_left
          (fun a (r : Obs.Detect.incident) -> Float.max a r.in_clear)
          neg_infinity rows
      in
      ( Some onset,
        Some (clear -. onset),
        List.for_all (fun (r : Obs.Detect.incident) -> not r.in_open) rows )

let detect_engage_recover_model =
  let incident =
    QCheck.Gen.(
      map3
        (fun shape onset len ->
          let onset = float_of_int onset /. 10. and len = float_of_int len /. 10. in
          let run_end = 100. in
          let clear, open_ =
            match shape with
            | 0 -> (Float.min run_end (onset +. len), false) (* cleared *)
            | 1 -> (nan, true) (* still active *)
            | _ -> (run_end, true) (* closed at run end by [finish] *)
          in
          {
            Obs.Detect.in_rule = "r";
            in_onset = onset;
            in_clear = clear;
            in_peak = 1.;
            in_peak_at = onset;
            in_open = open_;
          })
        (int_bound 2) (int_bound 999) (int_bound 999))
  in
  QCheck.Test.make ~name:"detect: engage_recover matches the chaos fold" ~count:500
    (QCheck.make
       ~print:(fun incs ->
         String.concat "; "
           (List.map
              (fun (i : Obs.Detect.incident) ->
                Printf.sprintf "onset=%g clear=%g open=%b" i.in_onset i.in_clear i.in_open)
              incs))
       QCheck.Gen.(list_size (int_bound 6) incident))
    (fun incs ->
      let engage, recover, recovered = chaos_fold incs in
      match (Obs.Detect.engage_recover incs, engage, recover) with
      | None, None, None -> recovered
      | Some (onset, span, cleared), Some e, Some r ->
          Float.equal onset e && Float.equal span r && cleared = recovered
      | _ -> false)

(* A clean clear: hold the signal over the threshold, then below [off]
   long enough — the incident closes with the right onset/clear/peak and
   a second excursion opens a second incident. *)
let detect_onset_clear_peak () =
  let v = ref 0 in
  let ts = Obs.Timeseries.create ~interval:1.0 () in
  Obs.Timeseries.add ts ~name:"sig" ~mode:Obs.Timeseries.Level
    (Obs.Timeseries.Int_fn (fun () -> !v));
  let rules =
    [
      Obs.Detect.rule ~signal:`Value ~up:2 ~down:2 ~alpha:1.0 ~name:"r" ~chan:"sig" ~on:50.
        ~off:10. ();
    ]
  in
  let det = Obs.Detect.create ~rules ts in
  let t = ref 0. in
  let feed value =
    v := value;
    t := !t +. 1.;
    Obs.Timeseries.tick ts ~time:!t;
    Obs.Detect.step det
  in
  (* two windows over [on] to open (up = 2), a peak, two windows at or
     below [off] to clear (down = 2) *)
  List.iter feed [ 60; 60; 90; 5; 5; 0 ];
  (* second excursion, still open at finish *)
  List.iter feed [ 70; 70 ];
  Obs.Detect.finish det ~time:!t;
  match Obs.Detect.incidents det with
  | [ a; b ] ->
      Alcotest.(check (float 0.)) "onset at the up-th window" 2. a.Obs.Detect.in_onset;
      Alcotest.(check (float 0.)) "clear at the down-th quiet window" 5. a.Obs.Detect.in_clear;
      Alcotest.(check bool) "first incident closed" false a.Obs.Detect.in_open;
      Alcotest.(check (float 0.)) "peak value" 90. a.Obs.Detect.in_peak;
      Alcotest.(check (float 0.)) "peak time" 3. a.Obs.Detect.in_peak_at;
      Alcotest.(check (float 0.)) "second onset" 8. b.Obs.Detect.in_onset;
      Alcotest.(check bool) "second still open" true b.Obs.Detect.in_open;
      Alcotest.(check (float 0.)) "open incident finalized at run end" 8. b.Obs.Detect.in_clear
  | incs -> Alcotest.failf "expected 2 incidents, got %d" (List.length incs)

let export_parse_roundtrip () =
  let v =
    Obs.Export.(
      Obj
        [
          ("int", Int 42);
          ("neg", Int (-7));
          ("float", Float 2.5);
          ("exp", Float 1e-9);
          ("nan_as_null", number_or_null Float.nan);
          ("string", String "quote\" backslash\\ newline\n tab\t");
          ("list", List [ Null; Bool true; Bool false; Int 0 ]);
          ("nested", Obj [ ("empty_list", List []); ("empty_obj", Obj []) ]);
        ])
  in
  let expect =
    (* NaN serializes as null, so the round trip lands on Null there *)
    Obs.Export.(
      Obj
        [
          ("int", Int 42);
          ("neg", Int (-7));
          ("float", Float 2.5);
          ("exp", Float 1e-9);
          ("nan_as_null", Null);
          ("string", String "quote\" backslash\\ newline\n tab\t");
          ("list", List [ Null; Bool true; Bool false; Int 0 ]);
          ("nested", Obj [ ("empty_list", List []); ("empty_obj", Obj []) ]);
        ])
  in
  let num path = Option.bind (Obs.Export.find expect path) Obs.Export.number in
  Alcotest.(check (option (float 0.))) "int as number" (Some 42.) (num [ "int" ]);
  Alcotest.(check (option (float 0.))) "float as number" (Some 2.5) (num [ "float" ]);
  Alcotest.(check (option (float 0.))) "null is no number" None (num [ "nan_as_null" ]);
  Alcotest.(check bool) "nested find" true
    (Obs.Export.find expect [ "nested"; "empty_list" ] = Some (Obs.Export.List []));
  Alcotest.(check bool) "missing key" true (Obs.Export.find expect [ "nested"; "absent" ] = None);
  Alcotest.(check bool) "through a non-object" true (Obs.Export.find expect [ "int"; "x" ] = None);
  (match Obs.Export.parse (Obs.Export.to_string v) with
  | Ok got -> Alcotest.(check bool) "compact round-trips" true (got = expect)
  | Error e -> Alcotest.failf "compact parse failed: %s" e);
  match Obs.Export.parse (Obs.Export.to_string_pretty v) with
  | Ok got -> Alcotest.(check bool) "pretty round-trips" true (got = expect)
  | Error e -> Alcotest.failf "pretty parse failed: %s" e

let obj_field json name = Obs.Export.find json [ name ]

let flight_dump_roundtrip () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "tva_test_flight" in
  List.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Array.to_list (Sys.readdir dir) with Sys_error _ -> []);
  let v = ref 0 in
  let ts = Obs.Timeseries.create ~interval:0.5 () in
  Obs.Timeseries.add ts ~name:"sig" ~mode:Obs.Timeseries.Level
    (Obs.Timeseries.Int_fn (fun () -> !v));
  let det =
    Obs.Detect.create
      ~rules:
        [ Obs.Detect.rule ~signal:`Value ~alpha:1.0 ~name:"hot" ~chan:"sig" ~on:5. ~off:1. () ]
      ts
  in
  let f = Obs.Flight.create ~windows:8 ~max_dumps:2 ~dir ~label:"unit" () in
  Obs.Flight.set_timeseries f ts;
  Obs.Flight.set_detect f det;
  v := 9;
  Obs.Timeseries.tick ts ~time:0.5;
  Obs.Detect.step det;
  (* the in-memory dump round-trips through the parser and carries the
     trigger metadata plus the series *)
  let json = Obs.Flight.dump_json f ~reason:"unit-test" ~time:0.5 in
  (match Obs.Export.parse (Obs.Export.to_string_pretty json) with
  | Error e -> Alcotest.failf "dump_json does not re-parse: %s" e
  | Ok parsed ->
      Alcotest.(check bool) "flight marker" true (obj_field parsed "flight" = Some (Obs.Export.Bool true));
      Alcotest.(check bool) "label" true (obj_field parsed "label" = Some (Obs.Export.String "unit"));
      Alcotest.(check bool) "reason" true
        (obj_field parsed "reason" = Some (Obs.Export.String "unit-test"));
      Alcotest.(check bool) "series present" true (obj_field parsed "series" <> None));
  (* on-disk dumps: two under the cap, the third refused *)
  let p1 = Obs.Flight.trigger f ~reason:"one" ~time:0.5 in
  let p2 = Obs.Flight.trigger f ~reason:"two" ~time:0.5 in
  let p3 = Obs.Flight.trigger f ~reason:"three" ~time:0.5 in
  Alcotest.(check bool) "first dump written" true (p1 <> None);
  Alcotest.(check bool) "second dump written" true (p2 <> None);
  Alcotest.(check bool) "max_dumps cap enforced" true (p3 = None);
  Alcotest.(check (list string))
    "dumps in write order"
    [ Option.get p1; Option.get p2 ]
    (Obs.Flight.dumps f);
  let ic = open_in_bin (Option.get p1) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Export.parse s with
  | Ok parsed ->
      Alcotest.(check bool) "on-disk dump re-parses with reason" true
        (obj_field parsed "reason" = Some (Obs.Export.String "one"))
  | Error e -> Alcotest.failf "on-disk dump does not re-parse: %s" e

(* Regression: an unwritable flight dir (here: the path is a regular
   file) must degrade to a missing dump — [trigger] fires from detector
   callbacks on the simulation tick path, so it returns [None] instead of
   raising [Sys_error] and aborting the run at incident onset. *)
let flight_unwritable_dir_degrades () =
  let file = Filename.temp_file "tva_flight_blocked" "" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let f = Obs.Flight.create ~dir:file ~label:"blocked" () in
      (match Obs.Flight.trigger f ~reason:"onset" ~time:1.0 with
      | None -> ()
      | Some p -> Alcotest.failf "expected no dump, got %s" p);
      Alcotest.(check (list string)) "no dumps recorded" [] (Obs.Flight.dumps f))

(* The committed example artifact (results/flight_example.json, produced
   by the chaos suite's wipe scenario) must keep parsing with the same
   loader tooling uses; this pins the dump format. *)
let flight_example_parses () =
  (* cwd is test/ under `dune runtest` but the project root under
     `dune exec test/test_main.exe` *)
  let path =
    match
      List.find_opt Sys.file_exists
        [ "../results/flight_example.json"; "results/flight_example.json" ]
    with
    | Some p -> p
    | None -> Alcotest.fail "results/flight_example.json not found (missing dune dep?)"
  in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Export.parse s with
  | Error e -> Alcotest.failf "committed flight dump does not parse: %s" e
  | Ok json ->
      Alcotest.(check bool) "flight marker" true (obj_field json "flight" = Some (Obs.Export.Bool true));
      Alcotest.(check bool) "labelled" true (obj_field json "label" <> None);
      Alcotest.(check bool) "reasoned" true (obj_field json "reason" <> None);
      (match obj_field json "series" with
      | Some series ->
          (match obj_field series "windows" with
          | Some (Obs.Export.List (_ :: _)) -> ()
          | _ -> Alcotest.fail "series.windows empty or missing")
      | None -> Alcotest.fail "series missing");
      Alcotest.(check bool) "incidents present" true (obj_field json "incidents" <> None)

let report_series_rows () =
  let v = ref 0 in
  let ts = Obs.Timeseries.create ~interval:1.0 () in
  Obs.Timeseries.add ts ~name:"load" ~mode:Obs.Timeseries.Cumulative
    (Obs.Timeseries.Int_fn (fun () -> !v));
  (* baseline the cumulative source at v = 0 — without the explicit freeze
     the first tick would baseline-and-record in one go, storing delta 0 *)
  Obs.Timeseries.freeze ts;
  for k = 1 to 10 do
    v := !v + k;
    Obs.Timeseries.tick ts ~time:(float_of_int k)
  done;
  match Obs.Report.series_rows ts with
  | [ row ] ->
      Alcotest.(check string) "name" "load" row.Obs.Report.s_name;
      Alcotest.(check string) "mode" "cumulative" row.Obs.Report.s_mode;
      Alcotest.(check int) "windows" 10 row.Obs.Report.s_windows;
      (* deltas are 1..10 per-second rates: mean 5.5, max 10 *)
      Alcotest.(check (float 1e-9)) "mean" 5.5 row.Obs.Report.s_mean;
      Alcotest.(check (float 0.)) "max" 10. row.Obs.Report.s_max;
      Alcotest.(check int) "spark covers every window" 10
        (let d = Obs.Report.sparkline [| 1.; 2. |] in
         (* sparkline glyphs are multi-byte; count glyphs, not bytes *)
         String.length row.Obs.Report.s_spark / (String.length d / 2))
  | rows -> Alcotest.failf "expected 1 series row, got %d" (List.length rows)

let suite =
  [
    Alcotest.test_case "counters basics" `Quick counters_basics;
    Alcotest.test_case "registry + merge" `Quick counters_registry_and_merge;
    Alcotest.test_case "trace sampling + wraparound" `Quick trace_sampling_and_wraparound;
    Alcotest.test_case "trace filter + formats" `Quick trace_filter_and_formats;
    Alcotest.test_case "profile kinds" `Quick profile_kinds;
    Alcotest.test_case "profile attach/detach" `Quick profile_attach_counts_sim_events;
    Alcotest.test_case "export null markers" `Quick export_null_markers;
    Alcotest.test_case "metrics no-attempts regression" `Quick metrics_no_attempts_regression;
    Alcotest.test_case "flow-cache eviction stats" `Quick flow_cache_eviction_stats;
    Alcotest.test_case "qdisc high-water mark" `Quick qdisc_hwm;
    Alcotest.test_case "conservation: packet classes" `Quick conservation_packet_classes;
    Alcotest.test_case "conservation: forwarding" `Quick conservation_forwarding;
    Alcotest.test_case "conservation: flow caches" `Quick conservation_caches;
    Alcotest.test_case "counters do not perturb results" `Quick obs_counters_do_not_perturb_results;
    Alcotest.test_case "demotions match host echoes" `Quick demotions_match_host_echoes;
    Alcotest.test_case "bridge: trace off allocates nothing" `Quick
      bridge_trace_off_allocates_nothing;
    Alcotest.test_case "bridge: live trace records every event" `Quick
      bridge_live_trace_records_every_event;
    Alcotest.test_case "timeseries basics" `Quick timeseries_basics;
    Alcotest.test_case "router counters allocate nothing" `Quick router_counters_allocate_nothing;
    Alcotest.test_case "timeseries tick allocates nothing" `Quick
      timeseries_tick_allocates_nothing;
    QCheck_alcotest.to_alcotest detect_no_flapping;
    QCheck_alcotest.to_alcotest detect_engage_recover_model;
    Alcotest.test_case "detect onset/clear/peak" `Quick detect_onset_clear_peak;
    Alcotest.test_case "export parse round-trip" `Quick export_parse_roundtrip;
    Alcotest.test_case "flight dump round-trip" `Quick flight_dump_roundtrip;
    Alcotest.test_case "flight unwritable dir degrades" `Quick flight_unwritable_dir_degrades;
    Alcotest.test_case "committed flight example parses" `Quick flight_example_parses;
    Alcotest.test_case "report series rows" `Quick report_series_rows;
  ]
