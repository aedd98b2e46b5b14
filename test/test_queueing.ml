(* Queueing disciplines: FIFO semantics, DRR fairness, the token-bucket
   request limiter and its policer meter, strict priority and the Fig. 2
   TVA link built from it, SFQ collisions, and the allocation-free
   datapath of every scheme's link. *)

let mk_packet ?(src = 1) ?(dst = 2) ?(bytes = 1000) () =
  Wire.Packet.make ~src:(Wire.Addr.of_int src) ~dst:(Wire.Addr.of_int dst)
    (Wire.Packet.Raw bytes)

(* --- Droptail ----------------------------------------------------------- *)

let droptail_fifo_order () =
  let q = Droptail.create ~capacity_bytes:10_000 () in
  let a = mk_packet () and b = mk_packet () in
  Alcotest.(check bool) "enq a" true (Qdisc.enqueue q ~now:0. a);
  Alcotest.(check bool) "enq b" true (Qdisc.enqueue q ~now:0. b);
  (match Qdisc.dequeue_opt q ~now:0. with
  | Some p -> Alcotest.(check int) "a first" a.Wire.Packet.id p.Wire.Packet.id
  | None -> Alcotest.fail "empty");
  match Qdisc.dequeue_opt q ~now:0. with
  | Some p -> Alcotest.(check int) "b second" b.Wire.Packet.id p.Wire.Packet.id
  | None -> Alcotest.fail "empty"

let droptail_byte_capacity () =
  let q = Droptail.create ~capacity_bytes:2500 () in
  Alcotest.(check bool) "1" true (Qdisc.enqueue q ~now:0. (mk_packet ()));
  Alcotest.(check bool) "2" true (Qdisc.enqueue q ~now:0. (mk_packet ()));
  Alcotest.(check bool) "3 dropped" false (Qdisc.enqueue q ~now:0. (mk_packet ()));
  Alcotest.(check int) "drop counted" 1 q.Qdisc.stats.Qdisc.dropped;
  ignore (Qdisc.dequeue_opt q ~now:0.);
  Alcotest.(check bool) "space after dequeue" true (Qdisc.enqueue q ~now:0. (mk_packet ()))

let droptail_packet_capacity () =
  let q = Droptail.create ~capacity_packets:2 ~capacity_bytes:1_000_000 () in
  Alcotest.(check bool) "1" true (Qdisc.enqueue q ~now:0. (mk_packet ~bytes:40 ()));
  Alcotest.(check bool) "2" true (Qdisc.enqueue q ~now:0. (mk_packet ~bytes:40 ()));
  (* A tiny packet is still rejected once the packet count is reached —
     no small-packet advantage. *)
  Alcotest.(check bool) "3 dropped" false (Qdisc.enqueue q ~now:0. (mk_packet ~bytes:40 ()))

let droptail_counts () =
  let q = Droptail.create ~capacity_bytes:10_000 () in
  ignore (Qdisc.enqueue q ~now:0. (mk_packet ()));
  ignore (Qdisc.enqueue q ~now:0. (mk_packet ~bytes:500 ()));
  Alcotest.(check int) "packets" 2 (Qdisc.packet_count q);
  Alcotest.(check int) "bytes" 1500 (Qdisc.byte_count q);
  Alcotest.(check (float 0.)) "ready now" 0. (Qdisc.next_ready q ~now:0.)

let droptail_empty_next_ready () =
  let q = Droptail.create ~capacity_bytes:1000 () in
  Alcotest.(check bool) "idle" true (Qdisc.next_ready q ~now:0. = infinity)

(* --- DRR ----------------------------------------------------------------- *)

let drr_round_robins_equally () =
  let q = Drr.create ~classify:(fun p -> Wire.Addr.to_int p.Wire.Packet.src) () in
  (* Backlog: 10 packets from A, 10 from B. *)
  for _ = 1 to 10 do
    ignore (Qdisc.enqueue q ~now:0. (mk_packet ~src:1 ()));
    ignore (Qdisc.enqueue q ~now:0. (mk_packet ~src:2 ()))
  done;
  (* Twelve dequeues cover whole DRR rounds: the split must be 6/6 (within
     a round the 1500-byte quantum staggers 1000-byte packets 1-then-2). *)
  let counts = Hashtbl.create 2 in
  for _ = 1 to 12 do
    match Qdisc.dequeue_opt q ~now:0. with
    | Some p ->
        let k = Wire.Addr.to_int p.Wire.Packet.src in
        Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
    | None -> Alcotest.fail "ran dry"
  done;
  Alcotest.(check int) "class A" 6 (Option.value ~default:0 (Hashtbl.find_opt counts 1));
  Alcotest.(check int) "class B" 6 (Option.value ~default:0 (Hashtbl.find_opt counts 2))

let drr_byte_fairness_with_unequal_sizes () =
  (* Class A sends 1500-byte packets, class B 500-byte ones: per round B
     should get ~3 packets for A's 1. *)
  let q = Drr.create ~quantum:1500 ~classify:(fun p -> Wire.Addr.to_int p.Wire.Packet.src) () in
  for _ = 1 to 30 do
    ignore (Qdisc.enqueue q ~now:0. (mk_packet ~src:1 ~bytes:1500 ()));
    ignore (Qdisc.enqueue q ~now:0. (mk_packet ~src:2 ~bytes:500 ()))
  done;
  let bytes = Hashtbl.create 2 in
  for _ = 1 to 24 do
    match Qdisc.dequeue_opt q ~now:0. with
    | Some p ->
        let k = Wire.Addr.to_int p.Wire.Packet.src in
        Hashtbl.replace bytes k
          (Wire.Packet.size p + Option.value ~default:0 (Hashtbl.find_opt bytes k))
    | None -> Alcotest.fail "ran dry"
  done;
  let a = Option.value ~default:0 (Hashtbl.find_opt bytes 1) in
  let b = Option.value ~default:0 (Hashtbl.find_opt bytes 2) in
  Alcotest.(check bool)
    (Printf.sprintf "byte shares close (a=%d b=%d)" a b)
    true
    (float_of_int (abs (a - b)) /. float_of_int (a + b) < 0.2)

let drr_starvation_free =
  QCheck.Test.make ~name:"drr: every backlogged class is eventually served" ~count:50
    QCheck.(list_of_size Gen.(int_range 2 50) (int_range 0 7))
    (fun classes ->
      let q = Drr.create ~classify:(fun p -> Wire.Addr.to_int p.Wire.Packet.src) () in
      List.iter (fun c -> ignore (Qdisc.enqueue q ~now:0. (mk_packet ~src:(c + 1) ()))) classes;
      let served = Hashtbl.create 8 in
      let rec drain () =
        match Qdisc.dequeue_opt q ~now:0. with
        | Some p ->
            Hashtbl.replace served (Wire.Addr.to_int p.Wire.Packet.src) ();
            drain ()
        | None -> ()
      in
      drain ();
      List.for_all (fun c -> Hashtbl.mem served (c + 1)) classes
      && Qdisc.packet_count q = 0)

let drr_respects_per_class_capacity () =
  let q =
    Drr.create ~queue_capacity_bytes:2000 ~classify:(fun p -> Wire.Addr.to_int p.Wire.Packet.src) ()
  in
  Alcotest.(check bool) "1" true (Qdisc.enqueue q ~now:0. (mk_packet ~src:1 ()));
  Alcotest.(check bool) "2" true (Qdisc.enqueue q ~now:0. (mk_packet ~src:1 ()));
  Alcotest.(check bool) "class full" false (Qdisc.enqueue q ~now:0. (mk_packet ~src:1 ()));
  Alcotest.(check bool) "other class fine" true (Qdisc.enqueue q ~now:0. (mk_packet ~src:2 ()))

let drr_overflow_class_shares () =
  let q = Drr.create ~max_queues:2 ~classify:(fun p -> Wire.Addr.to_int p.Wire.Packet.src) () in
  (* Three distinct classes with a 2-class bound: the third lands in the
     shared overflow queue rather than being dropped. *)
  Alcotest.(check bool) "a" true (Qdisc.enqueue q ~now:0. (mk_packet ~src:1 ()));
  Alcotest.(check bool) "b" true (Qdisc.enqueue q ~now:0. (mk_packet ~src:2 ()));
  Alcotest.(check bool) "c overflows but queues" true (Qdisc.enqueue q ~now:0. (mk_packet ~src:3 ()));
  Alcotest.(check int) "all queued" 3 (Qdisc.packet_count q)

let drr_active_queue_count () =
  let q = Drr.create ~classify:(fun p -> Wire.Addr.to_int p.Wire.Packet.src) () in
  ignore (Qdisc.enqueue q ~now:0. (mk_packet ~src:1 ()));
  ignore (Qdisc.enqueue q ~now:0. (mk_packet ~src:2 ()));
  Alcotest.(check int) "two active" 2 (Drr.active_queues q);
  let rec drain () = match Qdisc.dequeue_opt q ~now:0. with Some _ -> drain () | None -> () in
  drain ();
  Alcotest.(check int) "none active" 0 (Drr.active_queues q)

(* --- Token bucket ---------------------------------------------------------- *)

let token_bucket_limits_rate () =
  let inner = Droptail.create ~capacity_bytes:1_000_000 () in
  (* 80 kb/s = 10 KB/s, 2 KB burst. *)
  let q = Token_bucket.create ~rate_bps:80_000. ~burst_bytes:2000 ~inner () in
  for _ = 1 to 10 do
    ignore (Qdisc.enqueue q ~now:0. (mk_packet ()))
  done;
  (* At t=0 the bucket holds 2 KB: exactly two 1 KB packets. *)
  Alcotest.(check bool) "1st" true (Qdisc.dequeue_opt q ~now:0. <> None);
  Alcotest.(check bool) "2nd" true (Qdisc.dequeue_opt q ~now:0. <> None);
  Alcotest.(check bool) "3rd blocked" true (Qdisc.dequeue_opt q ~now:0. = None);
  (* next_ready points at when the tokens suffice... *)
  let at = Qdisc.next_ready q ~now:0. in
  if at = infinity then Alcotest.fail "no readiness"
  else Alcotest.(check bool) "ready within 0.1s" true (at > 0. && at <= 0.11);
  (* ...and the packet flows once they do. *)
  Alcotest.(check bool) "after refill" true (Qdisc.dequeue_opt q ~now:0.11 <> None)

let token_bucket_long_run_rate () =
  let inner = Droptail.create ~capacity_bytes:10_000_000 () in
  let q = Token_bucket.create ~rate_bps:800_000. ~burst_bytes:2000 ~inner () in
  for _ = 1 to 1000 do
    ignore (Qdisc.enqueue q ~now:0. (mk_packet ()))
  done;
  (* Pull as fast as permitted for 1 simulated second: ~100 packets
     (100 KB/s) plus the burst. *)
  let served = ref 0 in
  let t = ref 0. in
  while !t < 1.0 do
    (match Qdisc.dequeue_opt q ~now:!t with Some _ -> incr served | None -> ());
    t := !t +. 0.001
  done;
  Alcotest.(check bool)
    (Printf.sprintf "served %d ≈ 102" !served)
    true
    (!served >= 95 && !served <= 110)

let token_bucket_passes_stats_through () =
  let inner = Droptail.create ~capacity_bytes:500 () in
  let q = Token_bucket.create ~rate_bps:1e6 ~burst_bytes:10_000 ~inner () in
  Alcotest.(check bool) "fits" true (Qdisc.enqueue q ~now:0. (mk_packet ~bytes:400 ()));
  Alcotest.(check bool) "inner full" false (Qdisc.enqueue q ~now:0. (mk_packet ~bytes:400 ()))

(* --- Priority --------------------------------------------------------------- *)

let priority_serves_high_first () =
  let high = Droptail.create ~capacity_bytes:10_000 () in
  let low = Droptail.create ~capacity_bytes:10_000 () in
  let q =
    Priority.create
      ~classify:(fun p -> if Wire.Addr.to_int p.Wire.Packet.src = 1 then 0 else 1)
      ~classes:[ high; low ] ()
  in
  ignore (Qdisc.enqueue q ~now:0. (mk_packet ~src:2 ()));
  ignore (Qdisc.enqueue q ~now:0. (mk_packet ~src:1 ()));
  (match Qdisc.dequeue_opt q ~now:0. with
  | Some p -> Alcotest.(check int) "high first" 1 (Wire.Addr.to_int p.Wire.Packet.src)
  | None -> Alcotest.fail "empty");
  match Qdisc.dequeue_opt q ~now:0. with
  | Some p -> Alcotest.(check int) "then low" 2 (Wire.Addr.to_int p.Wire.Packet.src)
  | None -> Alcotest.fail "empty"

let priority_clamps_class_index () =
  let a = Droptail.create ~capacity_bytes:10_000 () in
  let b = Droptail.create ~capacity_bytes:10_000 () in
  let q = Priority.create ~classify:(fun _ -> 99) ~classes:[ a; b ] () in
  ignore (Qdisc.enqueue q ~now:0. (mk_packet ()));
  Alcotest.(check int) "landed in last class" 1 (Qdisc.packet_count b)

(* --- Tri-class (Fig. 2) ------------------------------------------------------ *)

let tva_shim kind =
  match kind with
  | `Request -> Wire.Cap_shim.request ()
  | `Regular -> Wire.Cap_shim.regular ~nonce:1L ~caps:[] ~n_kb:32 ~t_sec:10 ~renewal:false ()

let tri_class_classifier () =
  let p_legacy = mk_packet () in
  Alcotest.(check int) "legacy" 2 (Tva.Qdiscs.classify_by_shim p_legacy);
  let p_req = mk_packet () in
  p_req.Wire.Packet.shim <- Some (tva_shim `Request);
  Alcotest.(check int) "request" 0 (Tva.Qdiscs.classify_by_shim p_req);
  let p_reg = mk_packet () in
  p_reg.Wire.Packet.shim <- Some (tva_shim `Regular);
  Alcotest.(check int) "regular" 1 (Tva.Qdiscs.classify_by_shim p_reg);
  let p_dem = mk_packet () in
  let shim = tva_shim `Regular in
  shim.Wire.Cap_shim.demoted <- true;
  p_dem.Wire.Packet.shim <- Some shim;
  Alcotest.(check int) "demoted is legacy" 2 (Tva.Qdiscs.classify_by_shim p_dem)

let tri_class_legacy_is_lowest_priority () =
  let q = Tva.Qdiscs.make ~params:Tva.Params.default ~bandwidth_bps:10e6 () in
  (* Backlog legacy then regular: regular must come out first. *)
  ignore (Qdisc.enqueue q ~now:0. (mk_packet ()));
  let reg = mk_packet ~src:5 () in
  reg.Wire.Packet.shim <- Some (tva_shim `Regular);
  ignore (Qdisc.enqueue q ~now:0. reg);
  match Qdisc.dequeue_opt q ~now:0. with
  | Some p -> Alcotest.(check bool) "regular first" true (p.Wire.Packet.shim <> None)
  | None -> Alcotest.fail "empty"

let tri_class_requests_rate_limited () =
  let params = { Tva.Params.default with Tva.Params.request_fraction = 0.01; request_burst_bytes = 500 } in
  let q = Tva.Qdiscs.make ~params ~bandwidth_bps:10e6 () in
  (* 1% of 10 Mb/s = 100 kb/s = 12.5 KB/s.  Queue 100 requests of 250 B. *)
  for _ = 1 to 100 do
    let p = mk_packet ~bytes:250 () in
    p.Wire.Packet.shim <- Some (tva_shim `Request);
    (* account for shim size: Raw 250 + shim *)
    ignore (Qdisc.enqueue q ~now:0. p)
  done;
  (* Draining for one second should release roughly rate/size packets, not
     all 100. *)
  let served = ref 0 in
  let t = ref 0. in
  while !t < 1.0 do
    (match Qdisc.dequeue_opt q ~now:!t with Some _ -> incr served | None -> ());
    t := !t +. 0.001
  done;
  Alcotest.(check bool)
    (Printf.sprintf "served %d bounded by limiter" !served)
    true
    (!served > 10 && !served < 70)

let tri_class_regular_unaffected_by_request_backlog () =
  let q = Tva.Qdiscs.make ~params:Tva.Params.default ~bandwidth_bps:10e6 () in
  for _ = 1 to 50 do
    let p = mk_packet ~bytes:250 () in
    p.Wire.Packet.shim <- Some (tva_shim `Request);
    ignore (Qdisc.enqueue q ~now:0. p)
  done;
  let reg = mk_packet () in
  reg.Wire.Packet.shim <- Some (tva_shim `Regular);
  ignore (Qdisc.enqueue q ~now:0. reg);
  (* Drain: the regular packet must appear as soon as the request
     limiter's initial token burst (~16 small requests) is spent, long
     before the 50-request backlog clears on rate. *)
  let found_at = ref None in
  for i = 1 to 25 do
    match Qdisc.dequeue_opt q ~now:0. with
    | Some p ->
        if !found_at = None && Tva.Qdiscs.classify_by_shim p = 1 then
          found_at := Some i
    | None -> ()
  done;
  match !found_at with
  | Some i -> Alcotest.(check bool) (Printf.sprintf "served at %d" i) true (i <= 20)
  | None -> Alcotest.fail "regular never served"

(* --- DRR differential model --------------------------------------------------- *)

(* Reference model: the pre-ring DRR exactly as it shipped — per-class
   [Stdlib.Queue] FIFOs, an [int Queue.t] round-robin ring, and an option
   current pointer.  The production DRR (ring buffers, pooled class
   records, sentinel dispatch) must agree with it decision-for-decision:
   same accepts/rejects, same service order, same counts — including the
   overflow-key sharing, the [max_queues] boundary, and the quirk that a
   rejected oversized packet still files an empty class record. *)
module Drr_model = struct
  type subqueue = {
    q : Wire.Packet.t Queue.t;
    mutable bytes : int;
    mutable deficit : int;
    mutable active : bool;
  }

  type t = {
    quantum : int;
    queue_capacity : int;
    max_queues : int;
    classify : Wire.Packet.t -> int;
    table : (int, subqueue) Hashtbl.t;
    ring : int Queue.t;
    mutable current : int option;
    mutable packets : int;
    mutable bytes : int;
  }

  let overflow_key = min_int

  let create ~quantum ~queue_capacity ~max_queues ~classify =
    {
      quantum;
      queue_capacity;
      max_queues;
      classify;
      table = Hashtbl.create 16;
      ring = Queue.create ();
      current = None;
      packets = 0;
      bytes = 0;
    }

  let subqueue_of st key =
    match Hashtbl.find_opt st.table key with
    | Some sq -> Some (key, sq)
    | None ->
        if Hashtbl.length st.table >= st.max_queues && key <> overflow_key then None
        else begin
          let sq = { q = Queue.create (); bytes = 0; deficit = 0; active = false } in
          Hashtbl.add st.table key sq;
          Some (key, sq)
        end

  let enqueue st p =
    let size = Wire.Packet.size p in
    let key = st.classify p in
    let slot =
      match subqueue_of st key with Some s -> Some s | None -> subqueue_of st overflow_key
    in
    match slot with
    | None -> false
    | Some (key, sq) ->
        if sq.bytes + size > st.queue_capacity then false
        else begin
          Queue.push p sq.q;
          sq.bytes <- sq.bytes + size;
          st.packets <- st.packets + 1;
          st.bytes <- st.bytes + size;
          if not sq.active then begin
            sq.active <- true;
            sq.deficit <- 0;
            Queue.push key st.ring
          end;
          true
        end

  let rec dequeue st =
    match st.current with
    | None ->
        if Queue.is_empty st.ring then None
        else begin
          let key = Queue.pop st.ring in
          (match Hashtbl.find_opt st.table key with
          | None -> ()
          | Some sq -> sq.deficit <- sq.deficit + st.quantum);
          st.current <- Some key;
          dequeue st
        end
    | Some key -> begin
        match Hashtbl.find_opt st.table key with
        | None ->
            st.current <- None;
            dequeue st
        | Some sq -> begin
            match Queue.peek_opt sq.q with
            | None ->
                Hashtbl.remove st.table key;
                st.current <- None;
                dequeue st
            | Some head ->
                let size = Wire.Packet.size head in
                if size <= sq.deficit then begin
                  let p = Queue.pop sq.q in
                  sq.deficit <- sq.deficit - size;
                  sq.bytes <- sq.bytes - size;
                  st.packets <- st.packets - 1;
                  st.bytes <- st.bytes - size;
                  if Queue.is_empty sq.q then begin
                    Hashtbl.remove st.table key;
                    st.current <- None
                  end;
                  Some p
                end
                else begin
                  Queue.push key st.ring;
                  st.current <- None;
                  dequeue st
                end
          end
      end
end

type drr_op = Enq of int * int | Deq

let drr_op_gen keys =
  QCheck.Gen.(
    frequency [ (3, map2 (fun k s -> Enq (k, s)) keys (int_range 100 2600)); (2, return Deq) ])

let drr_op_print = function
  | Enq (k, s) -> Printf.sprintf "Enq(key=%d,%dB)" k s
  | Deq -> "Deq"

let drr_differential ~name ~max_queues ~len keys =
  QCheck.Test.make ~name ~count:300
    (QCheck.make ~print:QCheck.Print.(list drr_op_print)
       QCheck.Gen.(list_size (int_range 1 len) (drr_op_gen keys)))
    (fun ops ->
      let classify p = Wire.Addr.to_int p.Wire.Packet.src in
      let quantum = 1500 and capacity = 2500 in
      let q =
        Drr.create ~quantum ~queue_capacity_bytes:capacity ~max_queues ~classify ()
      in
      let m = Drr_model.create ~quantum ~queue_capacity:capacity ~max_queues ~classify in
      List.for_all
        (fun op ->
          match op with
          | Enq (key, bytes) ->
              let p = mk_packet ~src:key ~bytes () in
              let got = Qdisc.enqueue q ~now:0. p in
              let want = Drr_model.enqueue m p in
              got = want
          | Deq -> begin
              let got = Qdisc.dequeue_opt q ~now:0. in
              let want = Drr_model.dequeue m in
              match (got, want) with
              | None, None -> true
              | Some g, Some w -> g.Wire.Packet.id = w.Wire.Packet.id
              | _ -> false
            end)
        ops
      && Qdisc.packet_count q = m.Drr_model.packets
      && Qdisc.byte_count q = m.Drr_model.bytes)

(* Keys 0-5 against max_queues 3 exercises the overflow class; sizes up
   to 2600 against a 2500-byte class capacity exercises rejects,
   including the oversized-first-packet edge. *)
let drr_matches_reference_model =
  drr_differential ~name:"drr: ring-buffer datapath matches the queue-based reference model"
    ~max_queues:3 ~len:200 (QCheck.Gen.int_range 0 5)

(* Up to 40 backlogged classes: the open-addressed class table grows
   from 8 slots, and its probe runs collide and close up as classes
   drain and return. *)
let drr_table_matches_reference_model =
  drr_differential ~name:"drr: class table under many keys matches the reference model"
    ~max_queues:40 ~len:600
    QCheck.Gen.(frequency [ (3, int_range 0 63); (1, map (fun k -> k * 1024) (int_range 0 15)) ])

let drr_overflow_key_is_reachable () =
  (* Once [max_queues] classes are backlogged, further keys all share the
     overflow class: they are FIFO among themselves regardless of key. *)
  let q = Drr.create ~max_queues:2 ~classify:(fun p -> Wire.Addr.to_int p.Wire.Packet.src) () in
  ignore (Qdisc.enqueue q ~now:0. (mk_packet ~src:1 ()));
  ignore (Qdisc.enqueue q ~now:0. (mk_packet ~src:2 ()));
  let c = mk_packet ~src:3 () and d = mk_packet ~src:4 () in
  ignore (Qdisc.enqueue q ~now:0. c);
  ignore (Qdisc.enqueue q ~now:0. d);
  Alcotest.(check int) "four queued" 4 (Qdisc.packet_count q);
  (* Drain and confirm the two overflow packets come out in arrival order. *)
  let order = ref [] in
  let rec drain () =
    match Qdisc.dequeue_opt q ~now:0. with
    | Some p ->
        order := p.Wire.Packet.id :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  let order = List.rev !order in
  let pos id = Option.get (List.find_index (fun x -> x = id) order) in
  Alcotest.(check bool) "overflow is FIFO" true (pos c.Wire.Packet.id < pos d.Wire.Packet.id)

(* --- Link differential models ---------------------------------------------------- *)

(* Reference model of a scheme's link: the strict-priority match chain it
   was written as, over the classes of a second link built the same way,
   with its own classifier.  A token-bucket class is modelled here, over
   that class's meter and inner queue, as the datapath ran before quiet
   classes were skipped: every dequeue and every readiness query refills
   the meter, whether or not the class holds a packet.  Leaf classes (FIFO,
   DRR) answer through [Qdisc] itself, which skips nothing at a leaf.  The
   production link must agree with it on every accept, every release and
   every readiness time, bit for bit. *)
module Ref_link = struct
  type cls =
    | Leaf of Qdisc.t
    | Metered of {
        meter : Policer.t;
        horizon : int;
        mutable staged : Wire.Packet.t;
        inner : Qdisc.t;
      }

  type t = { classify : Wire.Packet.t -> int; classes : cls array }

  let of_link ~classify (q : Qdisc.t) =
    match q.Qdisc.kind with
    | Qdisc.Priority { Qdisc.p_classes; _ } ->
        let cls (c : Qdisc.t) =
          match c.Qdisc.kind with
          | Qdisc.Token_bucket tb ->
              Metered
                {
                  meter = tb.Qdisc.tb_meter;
                  horizon = tb.Qdisc.tb_horizon;
                  staged = Qdisc.none;
                  inner = tb.Qdisc.tb_inner;
                }
          | Qdisc.Fifo _ | Qdisc.Drr _ -> Leaf c
          | Qdisc.Priority _ | Qdisc.Custom _ -> invalid_arg "Ref_link.of_link: class"
        in
        { classify; classes = Array.map cls p_classes }
    | _ -> invalid_arg "Ref_link.of_link: not a priority link"

  let enqueue m ~now p =
    match m.classes.(m.classify p) with
    | Leaf q | Metered { inner = q; _ } -> Qdisc.enqueue q ~now p

  let dequeue_class ~now = function
    | Leaf q -> Qdisc.dequeue q ~now
    | Metered c ->
        Policer.refill c.meter ~now;
        if c.staged != Qdisc.none then begin
          if Policer.take c.meter ~bytes:(Wire.Packet.size c.staged) then begin
            let p = c.staged in
            c.staged <- Qdisc.none;
            p
          end
          else Qdisc.none
        end
        else begin
          let p = Qdisc.dequeue c.inner ~now in
          if p == Qdisc.none || Policer.take c.meter ~bytes:(Wire.Packet.size p) then p
          else begin
            c.staged <- p;
            Qdisc.none
          end
        end

  let ready_class ~now = function
    | Leaf q -> Qdisc.next_ready q ~now
    | Metered c ->
        Policer.refill c.meter ~now;
        if c.staged != Qdisc.none then
          Policer.ready_at c.meter ~now ~bytes:(Wire.Packet.size c.staged)
        else begin
          let at = Qdisc.next_ready c.inner ~now in
          if at = infinity then infinity
          else Float.max at (Policer.ready_at c.meter ~now ~bytes:c.horizon)
        end

  let dequeue m ~now =
    let rec go i =
      if i = Array.length m.classes then Qdisc.none
      else begin
        let p = dequeue_class ~now m.classes.(i) in
        if p != Qdisc.none then p else go (i + 1)
      end
    in
    go 0

  let next_ready m ~now =
    Array.fold_left (fun acc c -> Float.min acc (ready_class ~now c)) infinity m.classes

  let count m =
    Array.fold_left
      (fun (n, b) -> function
        | Leaf q -> (n + Qdisc.packet_count q, b + Qdisc.byte_count q)
        | Metered c ->
            let staged = c.staged != Qdisc.none in
            ( n + Qdisc.packet_count c.inner + Bool.to_int staged,
              b + Qdisc.byte_count c.inner
              + if staged then Wire.Packet.size c.staged else 0 ))
      (0, 0) m.classes
end

(* A link under test: how to build it, the reference classifier, and the
   packet kinds the generator draws, highest class first and legacy
   last. *)
type link_case = {
  lc_name : string;
  lc_make : unit -> Qdisc.t;
  lc_classify : Wire.Packet.t -> int;
  lc_kinds : (string * (Wire.Packet.t -> unit)) array;
}

let tva_case =
  let params =
    {
      Tva.Params.default with
      Tva.Params.request_fraction = 0.01;
      request_burst_bytes = 1000;
      queue_capacity_bytes = 8000;
    }
  in
  {
    lc_name = "tva";
    (* Small queues and a 1 KB request burst at 1% of 10 Mb/s (an 80 ms
       refill), so drops, the request limiter's staging and its readiness
       times all show up within a few hundred operations. *)
    lc_make = (fun () -> Tva.Qdiscs.make ~params ~bandwidth_bps:10e6 ());
    lc_classify =
      (fun p ->
        match p.Wire.Packet.shim with
        | Some { Wire.Cap_shim.demoted = false; kind = Wire.Cap_shim.Request _; _ } -> 0
        | Some { Wire.Cap_shim.demoted = false; kind = Wire.Cap_shim.Regular _; _ } -> 1
        | Some _ | None -> 2);
    lc_kinds =
      [|
        ("request", fun p -> p.Wire.Packet.shim <- Some (tva_shim `Request));
        ("regular", fun p -> p.Wire.Packet.shim <- Some (tva_shim `Regular));
        ( "demoted",
          fun p ->
            let shim = tva_shim `Regular in
            shim.Wire.Cap_shim.demoted <- true;
            p.Wire.Packet.shim <- Some shim );
        ("legacy", ignore);
      |];
  }

(* SIFF's and NetFence's two FIFOs at 1 Mb/s hold 7.5 KB each, so they
   drop within a few hundred operations too. *)
let siff_case =
  {
    lc_name = "siff";
    lc_make = (fun () -> Siff.Router.make_qdisc ~bandwidth_bps:1e6);
    lc_classify =
      (fun p ->
        match p.Wire.Packet.siff with
        | Some { Wire.Siff_marking.flavor = Wire.Siff_marking.Dta; _ } -> 0
        | Some _ | None -> 1);
    lc_kinds =
      [|
        ("dta", fun p -> p.Wire.Packet.siff <- Some (Wire.Siff_marking.dta ~markings:[]));
        ("exp", fun p -> p.Wire.Packet.siff <- Some (Wire.Siff_marking.exp_packet ()));
        ("legacy", ignore);
      |];
  }

let netfence_case =
  {
    lc_name = "netfence";
    lc_make = (fun () -> Netfence.Router.make_qdisc ~bandwidth_bps:1e6);
    lc_classify = (fun p -> match p.Wire.Packet.nf with Some _ -> 0 | None -> 1);
    lc_kinds =
      [|
        ("stamped", fun p -> p.Wire.Packet.nf <- Some (Wire.Nf_feedback.empty ()));
        ("legacy", ignore);
      |];
  }

type link_op = L_enq of int * int * int | L_deq | L_ready | L_tick of int

let link_op_print case = function
  | L_enq (k, dst, bytes) -> Printf.sprintf "Enq(%s,dst=%d,%dB)" (fst case.lc_kinds.(k)) dst bytes
  | L_deq -> "Deq"
  | L_ready -> "Ready"
  | L_tick dt -> Printf.sprintf "Tick(%.1fms)" (float_of_int dt *. 0.1)

(* Runs of mixed operations, and windows in which the highest class is
   empty while its meter (on the TVA link) refills: one of its packets
   sent, then only legacy traffic, dequeues, readiness queries and ticks
   of at most 5 ms, well within the refill time. *)
let link_ops_gen case =
  let n = Array.length case.lc_kinds in
  let enq k =
    QCheck.Gen.(map2 (fun dst bytes -> L_enq (k, dst, bytes)) (int_range 1 4) (int_range 40 1500))
  in
  let mixed =
    QCheck.Gen.(
      list_size (int_range 1 40)
        (frequency
           [
             (4, int_range 0 (n - 1) >>= enq);
             (3, return L_deq);
             (1, return L_ready);
             (1, map (fun dt -> L_tick dt) (int_range 0 50));
           ]))
  in
  let window =
    QCheck.Gen.(
      map2
        (fun first rest -> first :: L_deq :: rest)
        (enq 0)
        (list_size (int_range 1 30)
           (frequency
              [
                (3, enq (n - 1));
                (3, return L_deq);
                (2, return L_ready);
                (1, map (fun dt -> L_tick dt) (int_range 0 50));
              ])))
  in
  QCheck.Gen.(map List.concat (list_size (int_range 1 10) (frequency [ (1, mixed); (1, window) ])))

(* Operation scripts over one of [cases], drawn with the case. *)
let link_scripts cases =
  QCheck.make
    ~print:(fun (case, ops) -> case.lc_name ^ ": " ^ QCheck.Print.list (link_op_print case) ops)
    QCheck.Gen.(oneofl cases >>= fun case -> map (fun ops -> (case, ops)) (link_ops_gen case))

let link_matches_reference ~name ~count cases =
  QCheck.Test.make ~name ~count (link_scripts cases) (fun (case, ops) ->
      let q = case.lc_make () in
      let m = Ref_link.of_link ~classify:case.lc_classify (case.lc_make ()) in
      let now = ref 0. in
      List.for_all
        (fun op ->
          match op with
          | L_enq (k, dst, bytes) ->
              let p = mk_packet ~dst ~bytes () in
              snd case.lc_kinds.(k) p;
              Qdisc.enqueue q ~now:!now p = Ref_link.enqueue m ~now:!now p
          | L_deq -> Qdisc.dequeue q ~now:!now == Ref_link.dequeue m ~now:!now
          | L_ready -> Float.equal (Qdisc.next_ready q ~now:!now) (Ref_link.next_ready m ~now:!now)
          | L_tick dt ->
              now := !now +. (float_of_int dt *. 1e-4);
              true)
        ops
      && (Qdisc.packet_count q, Qdisc.byte_count q) = Ref_link.count m)

let tva_link_matches_tri_class_model =
  link_matches_reference
    ~name:"tva link: three-class priority matches the tri-class reference model" ~count:300
    [ tva_case ]

let two_class_links_match_reference =
  link_matches_reference
    ~name:"siff and netfence links: two-class priority matches the reference model" ~count:300
    [ siff_case; netfence_case ]

(* --- Quiet qdiscs ---------------------------------------------------------------- *)

(* Every token bucket in [q] holds its full burst. *)
let meters_full q =
  let full = ref true in
  Qdisc.iter_nested q (fun l ->
      match l.Qdisc.kind with
      | Qdisc.Token_bucket tb -> if not (Policer.full tb.Qdisc.tb_meter) then full := false
      | _ -> ());
  !full

(* A copy of every level's stats, parent first. *)
let stats_snapshot q =
  let acc = ref [] in
  Qdisc.iter_nested q (fun l ->
      let st = l.Qdisc.stats in
      acc := { st with Qdisc.enqueued = st.Qdisc.enqueued } :: !acc);
  List.rev !acc

(* [quiet] holds exactly when nothing is held and every meter is full; on
   a quiet link a dequeue finds nothing, a readiness query answers
   [infinity], and neither moves a stat or a meter.  Besides the three
   links above, a bare token bucket over a FIFO, quiet at its top level
   with no [Priority] above it. *)
let quiet_exactly_when_empty_and_full =
  let bare =
    {
      lc_name = "bucket";
      lc_make =
        (fun () ->
          Token_bucket.create ~rate_bps:80_000. ~burst_bytes:1500
            ~inner:(Droptail.create ~capacity_bytes:6000 ())
            ());
      lc_classify = (fun _ -> 0);
      lc_kinds = [| ("raw", ignore) |];
    }
  in
  QCheck.Test.make ~name:"qdisc: quiet exactly when empty with full meters, and a no-op then"
    ~count:300
    (link_scripts [ tva_case; siff_case; netfence_case; bare ])
    (fun (case, ops) ->
      let q = case.lc_make () in
      let now = ref 0. in
      let quiet_ok () =
        let quiet = Qdisc.quiet q in
        quiet = (Qdisc.packet_count q = 0 && meters_full q)
        && ((not quiet)
           ||
           let before = stats_snapshot q in
           Qdisc.dequeue q ~now:!now == Qdisc.none
           && Float.equal (Qdisc.next_ready q ~now:!now) infinity
           && stats_snapshot q = before && meters_full q)
      in
      List.for_all
        (fun op ->
          (match op with
          | L_enq (k, dst, bytes) ->
              let p = mk_packet ~dst ~bytes () in
              snd case.lc_kinds.(k) p;
              ignore (Qdisc.enqueue q ~now:!now p)
          | L_deq -> ignore (Qdisc.dequeue q ~now:!now)
          | L_ready -> ignore (Qdisc.next_ready q ~now:!now)
          | L_tick dt -> now := !now +. (float_of_int dt *. 1e-4));
          quiet_ok ())
        ops)

let custom_never_quiet () =
  let q =
    Qdisc.make_custom ~enqueue:(fun ~now:_ _ -> true) ~dequeue:(fun ~now:_ -> Qdisc.none)
      ~next_ready:(fun ~now:_ -> infinity) ~packet_count:(fun () -> 0)
      ~byte_count:(fun () -> 0) ()
  in
  Alcotest.(check bool) "empty custom" false (Qdisc.quiet q);
  let inside = Priority.create ~classify:(fun _ -> 0) ~classes:[ q ] () in
  Alcotest.(check bool) "priority over custom" false (Qdisc.quiet inside)

(* --- Token bucket conformance --------------------------------------------------- *)

let token_bucket_window_conformance =
  (* Over any observation window [t, t+w], a conformant shaper releases at
     most burst + rate*w bytes.  Drive the bucket with a randomized
     dequeue schedule and check every window pair. *)
  QCheck.Test.make ~name:"token bucket: released bytes within burst + rate*w in every window"
    ~count:100
    QCheck.(
      triple (int_range 1 40) (* rate, units of 10 KB/s *)
        (int_range 1500 20_000) (* burst bytes *)
        (list_of_size Gen.(int_range 10 120) (pair (int_range 1 50) (int_range 100 1500))))
    (fun (rate10k, burst, steps) ->
      let rate_bytes = float_of_int rate10k *. 10_000. in
      let inner = Droptail.create ~capacity_bytes:max_int () in
      let q =
        Token_bucket.create ~rate_bps:(rate_bytes *. 8.) ~burst_bytes:burst ~inner ()
      in
      (* Pre-load a deep backlog with varying packet sizes. *)
      List.iter (fun (_, bytes) -> ignore (Qdisc.enqueue q ~now:0. (mk_packet ~bytes ()))) steps;
      for _ = 1 to 100 do
        ignore (Qdisc.enqueue q ~now:0. (mk_packet ~bytes:700 ()))
      done;
      (* Random dequeue schedule: advance time by 0.1-5 ms per step, pull
         until refused. *)
      let releases = ref [] in
      let t = ref 0. in
      List.iter
        (fun (dt_tenth_ms, _) ->
          t := !t +. (float_of_int dt_tenth_ms *. 1e-4);
          let rec pull () =
            match Qdisc.dequeue_opt q ~now:!t with
            | Some p ->
                releases := (!t, Wire.Packet.size p) :: !releases;
                pull ()
            | None -> ()
          in
          pull ())
        steps;
      let releases = Array.of_list (List.rev !releases) in
      let n = Array.length releases in
      let ok = ref true in
      for i = 0 to n - 1 do
        let ti, _ = releases.(i) in
        let bytes = ref 0 in
        for j = i to n - 1 do
          let tj, sz = releases.(j) in
          bytes := !bytes + sz;
          (* 1-byte slack for float rounding in the bound itself; the
             fixed-point bucket only truncates grants, never inflates. *)
          if float_of_int !bytes > float_of_int burst +. (rate_bytes *. (tj -. ti)) +. 1. then
            ok := false
        done
      done;
      !ok)

(* --- Policer --------------------------------------------------------------------- *)

let policer_script =
  QCheck.(
    triple (int_range 1 40) (* rate, units of 10 KB/s *)
      (int_range 1500 20_000) (* burst bytes *)
      (list_of_size Gen.(int_range 1 300) (pair (int_range 0 50) (int_range 40 1500))))

let policer_conformance =
  (* What the meter admits over [0, t] is at most the burst it starts
     with plus what the rate earns: refills grant whole units only, never
     more than the elapsed time pays for. *)
  QCheck.Test.make ~name:"policer: bytes admitted over [0, t] within burst + rate*t" ~count:200
    policer_script
    (fun (rate10k, burst, script) ->
      let rate_bytes = float_of_int rate10k *. 10_000. in
      let m = Policer.create ~rate_bps:(rate_bytes *. 8.) ~burst_bytes:burst in
      let t = ref 0. and admitted = ref 0 in
      List.for_all
        (fun (dt_tenth_ms, bytes) ->
          t := !t +. (float_of_int dt_tenth_ms *. 1e-4);
          if Policer.admit m ~now:!t ~bytes then admitted := !admitted + bytes;
          (* 1-byte slack for float rounding in the bound itself. *)
          float_of_int !admitted <= float_of_int burst +. (rate_bytes *. !t) +. 1.)
        script)

let policer_set_rate_keeps_tokens () =
  (* 1000 B/s, 1000 B burst: spend the burst at 0, earn exactly 500 B by
     0.5 s, then drop the rate a thousandfold.  The 500 B already earned
     still conform at 0.5 s; one byte more does not. *)
  let m = Policer.create ~rate_bps:8000. ~burst_bytes:1000 in
  Alcotest.(check bool) "burst" true (Policer.admit m ~now:0. ~bytes:1000);
  Alcotest.(check bool) "empty" false (Policer.admit m ~now:0. ~bytes:1);
  Alcotest.(check bool) "not yet 501" false (Policer.admit m ~now:0.5 ~bytes:501);
  Policer.set_rate m ~rate_bps:8.;
  Alcotest.(check (float 0.)) "new rate" 8. (Policer.rate_bps m);
  Alcotest.(check bool) "accrued 500 kept" true (Policer.admit m ~now:0.5 ~bytes:500);
  Alcotest.(check bool) "nothing more" false (Policer.admit m ~now:0.5 ~bytes:1)

let policer_rejects_bad_arguments () =
  let invalid f = match f () with _ -> false | exception Invalid_argument _ -> true in
  let create ~rate_bps ~burst_bytes () = ignore (Policer.create ~rate_bps ~burst_bytes) in
  Alcotest.(check bool) "zero rate" true (invalid (create ~rate_bps:0. ~burst_bytes:1000));
  Alcotest.(check bool) "negative rate" true (invalid (create ~rate_bps:(-8.) ~burst_bytes:1000));
  Alcotest.(check bool) "zero burst" true (invalid (create ~rate_bps:8000. ~burst_bytes:0));
  Alcotest.(check bool) "negative burst" true (invalid (create ~rate_bps:8000. ~burst_bytes:(-1)));
  let m = Policer.create ~rate_bps:8000. ~burst_bytes:1000 in
  Alcotest.(check bool) "set zero rate" true (invalid (fun () -> Policer.set_rate m ~rate_bps:0.));
  Alcotest.(check bool) "set negative rate" true
    (invalid (fun () -> Policer.set_rate m ~rate_bps:(-8.)));
  Alcotest.(check (float 0.)) "rate unchanged" 8000. (Policer.rate_bps m)

let policer_matches_token_bucket =
  (* The shaper and the policer share one meter: on one backlog polled at
     one schedule, the token-bucket qdisc releases its head exactly when a
     policer at the same rate and burst admits the same packet. *)
  QCheck.Test.make ~name:"policer: token bucket releases where the policer admits" ~count:200
    policer_script
    (fun (rate10k, burst, script) ->
      let rate_bps = float_of_int rate10k *. 80_000. in
      let inner = Droptail.create ~capacity_bytes:max_int () in
      let q = Token_bucket.create ~rate_bps ~burst_bytes:burst ~inner () in
      let m = Policer.create ~rate_bps ~burst_bytes:burst in
      let pending = ref (List.map (fun (_, bytes) -> mk_packet ~bytes ()) script) in
      List.iter (fun p -> ignore (Qdisc.enqueue q ~now:0. p)) !pending;
      let t = ref 0. in
      List.for_all
        (fun (dt_tenth_ms, _) ->
          t := !t +. (float_of_int dt_tenth_ms *. 1e-4);
          match !pending with
          | [] -> true
          | p :: rest ->
              let shaped = Qdisc.dequeue q ~now:!t in
              let policed = Policer.admit m ~now:!t ~bytes:(Wire.Packet.size p) in
              if policed then pending := rest;
              if policed then shaped == p else shaped == Qdisc.none)
        script)

(* --- Link qdisc allocation --------------------------------------------------------- *)

(* Every scheme's link qdisc, fed at a fixed [now] one packet of each
   class the five schemes tell apart (legacy, TVA request, regular and
   demoted, SIFF data, NetFence-stamped), asked once for its readiness,
   and drained as often, allocates nothing per packet once its rings and
   tables have grown.  A [Priority] dequeue that built its loop as a
   closure cost SIFF's and NetFence's links 7 words a packet; pushback's
   shaper staging its head as an [option] cost 4; TVA's per-destination
   DRR class, draining every round and filed again the next, cost a
   4-word [Hashtbl] bucket a round; and [next_ready] boxing its result at
   each composite level cost 2 words a call on SIFF's and NetFence's
   links and 4 on TVA's.  The idle path allocates nothing either: a
   dequeue and a readiness query on an empty link, fresh (quiet, but for
   pushback's, which never is) or drained of one TVA request (the TVA
   link's request meter is then still refilling). *)
let link_qdiscs_allocate_nothing () =
  let pkts =
    let shim kind demoted =
      let p = mk_packet ~dst:3 () in
      let s = tva_shim kind in
      s.Wire.Cap_shim.demoted <- demoted;
      p.Wire.Packet.shim <- Some s;
      p
    in
    let siff = mk_packet ~dst:4 () in
    siff.Wire.Packet.siff <- Some (Wire.Siff_marking.dta ~markings:[]);
    let nf = mk_packet ~dst:5 () in
    nf.Wire.Packet.nf <- Some (Wire.Nf_feedback.empty ());
    [| mk_packet (); shim `Request false; shim `Regular false; shim `Regular true; siff; nf |]
  in
  let now = 1. in
  List.iter
    (fun (name, factory) ->
      let scheme = factory (Sim.create ()) in
      let q = scheme.Workload.Scheme.make_qdisc ~bandwidth_bps:10e6 in
      let ready = ref 0 in
      let round () =
        for i = 0 to Array.length pkts - 1 do
          ignore (Qdisc.enqueue q ~now pkts.(i))
        done;
        if Qdisc.next_ready q ~now < infinity then incr ready;
        for _ = 1 to Array.length pkts do
          ignore (Sys.opaque_identity (Qdisc.dequeue q ~now))
        done
      in
      for _ = 1 to 200 do
        round ()
      done;
      let rounds = 2000 in
      ready := 0;
      let before = Gc.minor_words () in
      for _ = 1 to rounds do
        round ()
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int (rounds * Array.length pkts) in
      Alcotest.(check int) (name ^ " ready every round") rounds !ready;
      Alcotest.(check (float 0.)) (name ^ " words per packet") 0. words;
      (* The idle path: a fresh link, and one drained of a single TVA
         request. *)
      List.iter
        (fun (label, drained) ->
          let idle = scheme.Workload.Scheme.make_qdisc ~bandwidth_bps:10e6 in
          if drained then begin
            ignore (Qdisc.enqueue idle ~now pkts.(1));
            ignore (Qdisc.dequeue idle ~now)
          end;
          Alcotest.(check int) (name ^ " " ^ label ^ " empty") 0 (Qdisc.packet_count idle);
          let never = ref 0 in
          let poll () =
            ignore (Sys.opaque_identity (Qdisc.dequeue idle ~now));
            if Qdisc.next_ready idle ~now = infinity then incr never
          in
          poll ();
          let before = Gc.minor_words () in
          for _ = 1 to rounds do
            poll ()
          done;
          let words = (Gc.minor_words () -. before) /. float_of_int rounds in
          Alcotest.(check int) (name ^ " " ^ label ^ " never ready") (rounds + 1) !never;
          Alcotest.(check (float 0.)) (name ^ " " ^ label ^ " words per idle poll") 0. words)
        [ ("fresh", false); ("drained", true) ])
    Workload.Scenario.schemes

(* --- SFQ ----------------------------------------------------------------------- *)

let sfq_seed_breaks_collision_set () =
  (* Craft a set of path-ids that all collide under one seed, then check a
     different seed scatters them — the rehash-on-new-secret defense of
     paper Sec. 3.9.  (The old multiplicative hash failed this: bucket
     choice depended on a narrow band of key bits, so a collision set
     survived every seed.) *)
  let buckets = 64 in
  let seed1 = 0x1234 and seed2 = 0x9e3779b9 in
  let target = Sfq.hash ~seed:seed1 ~buckets 1 in
  let colliding = ref [ 1 ] in
  let k = ref 2 in
  while List.length !colliding < 8 do
    if Sfq.hash ~seed:seed1 ~buckets !k = target then colliding := !k :: !colliding;
    incr k
  done;
  let spread seed =
    let tbl = Hashtbl.create 8 in
    List.iter (fun key -> Hashtbl.replace tbl (Sfq.hash ~seed ~buckets key) ()) !colliding;
    Hashtbl.length tbl
  in
  Alcotest.(check int) "collides under seed1" 1 (spread seed1);
  Alcotest.(check bool)
    (Printf.sprintf "seed2 scatters to %d buckets" (spread seed2))
    true
    (spread seed2 >= 4)

let sfq_collisions_share_fate () =
  let buckets = 8 and seed = 3 in
  (* Find two distinct keys that collide. *)
  let k1 = 1 in
  let target = Sfq.hash ~seed ~buckets k1 in
  let k2 =
    let rec find k = if k <> k1 && Sfq.hash ~seed ~buckets k = target then k else find (k + 1) in
    find 2
  in
  let q =
    Sfq.create ~queue_capacity_bytes:2000 ~seed ~buckets
      ~flow_key:(fun p -> Wire.Addr.to_int p.Wire.Packet.src)
      ()
  in
  ignore (Qdisc.enqueue q ~now:0. (mk_packet ~src:k1 ()));
  ignore (Qdisc.enqueue q ~now:0. (mk_packet ~src:k1 ()));
  (* The colliding flow shares the same (full) bucket and is dropped — the
     deliberate-collision crowding the paper warns about (Sec. 3.9). *)
  Alcotest.(check bool) "collision crowded out" false (Qdisc.enqueue q ~now:0. (mk_packet ~src:k2 ()))

let sfq_hash_stable () =
  Alcotest.(check int) "deterministic" (Sfq.hash ~seed:7 ~buckets:16 123)
    (Sfq.hash ~seed:7 ~buckets:16 123)

let sfq_hash_in_range =
  QCheck.Test.make ~name:"sfq: hash lands in a bucket" ~count:500
    QCheck.(pair int (int_range 1 64))
    (fun (key, buckets) ->
      let h = Sfq.hash ~seed:1 ~buckets key in
      h >= 0 && h < buckets)

let suite =
  [
    Alcotest.test_case "droptail fifo" `Quick droptail_fifo_order;
    Alcotest.test_case "droptail bytes" `Quick droptail_byte_capacity;
    Alcotest.test_case "droptail packets" `Quick droptail_packet_capacity;
    Alcotest.test_case "droptail counts" `Quick droptail_counts;
    Alcotest.test_case "droptail idle" `Quick droptail_empty_next_ready;
    Alcotest.test_case "drr equal split" `Quick drr_round_robins_equally;
    Alcotest.test_case "drr byte fairness" `Quick drr_byte_fairness_with_unequal_sizes;
    QCheck_alcotest.to_alcotest drr_starvation_free;
    Alcotest.test_case "drr class capacity" `Quick drr_respects_per_class_capacity;
    Alcotest.test_case "drr overflow class" `Quick drr_overflow_class_shares;
    Alcotest.test_case "drr overflow fifo" `Quick drr_overflow_key_is_reachable;
    Alcotest.test_case "drr active queues" `Quick drr_active_queue_count;
    QCheck_alcotest.to_alcotest drr_matches_reference_model;
    QCheck_alcotest.to_alcotest drr_table_matches_reference_model;
    Alcotest.test_case "token bucket burst" `Quick token_bucket_limits_rate;
    Alcotest.test_case "token bucket rate" `Quick token_bucket_long_run_rate;
    Alcotest.test_case "token bucket inner stats" `Quick token_bucket_passes_stats_through;
    QCheck_alcotest.to_alcotest token_bucket_window_conformance;
    Alcotest.test_case "priority order" `Quick priority_serves_high_first;
    Alcotest.test_case "priority clamp" `Quick priority_clamps_class_index;
    Alcotest.test_case "tri-class classifier" `Quick tri_class_classifier;
    Alcotest.test_case "tri-class legacy lowest" `Quick tri_class_legacy_is_lowest_priority;
    Alcotest.test_case "tri-class request limiter" `Quick tri_class_requests_rate_limited;
    Alcotest.test_case "tri-class regular protected" `Quick tri_class_regular_unaffected_by_request_backlog;
    QCheck_alcotest.to_alcotest tva_link_matches_tri_class_model;
    QCheck_alcotest.to_alcotest two_class_links_match_reference;
    QCheck_alcotest.to_alcotest quiet_exactly_when_empty_and_full;
    Alcotest.test_case "custom never quiet" `Quick custom_never_quiet;
    QCheck_alcotest.to_alcotest policer_conformance;
    Alcotest.test_case "policer set_rate keeps tokens" `Quick policer_set_rate_keeps_tokens;
    Alcotest.test_case "policer bad arguments" `Quick policer_rejects_bad_arguments;
    QCheck_alcotest.to_alcotest policer_matches_token_bucket;
    Alcotest.test_case "link qdiscs allocate nothing" `Quick link_qdiscs_allocate_nothing;
    Alcotest.test_case "sfq collisions" `Quick sfq_collisions_share_fate;
    Alcotest.test_case "sfq seed breaks collisions" `Quick sfq_seed_breaks_collision_set;
    Alcotest.test_case "sfq stable" `Quick sfq_hash_stable;
    QCheck_alcotest.to_alcotest sfq_hash_in_range;
  ]
