(* NetFence: the secure-feedback datapath (mint/validate) and the AIMD
   policing loop that makes per-sender rates converge to fair shares. *)

let src = Wire.Addr.of_int 0x0a000001
let other = Wire.Addr.of_int 0x0a000002

let make_router ?(router_id = 7) ?(secret_master = "k") () =
  let sim = Sim.create () in
  (sim, Netfence.Router.create ~secret_master ~router_id ~sim ~link_bps:10e6 ())

let action = Alcotest.testable Wire.Nf_feedback.pp_action ( = )

let mac_roundtrip () =
  let _sim, r = make_router () in
  List.iter
    (fun a ->
      let tok = Netfence.Router.mint r ~now:1. ~src a in
      Alcotest.(check (option action))
        "token validates as minted" (Some a)
        (Netfence.Router.validate r ~now:1.2 tok ~src))
    [ Wire.Nf_feedback.Incr; Wire.Nf_feedback.Decr ]

let forgery_rejected () =
  let _sim, r = make_router () in
  let tok = Netfence.Router.mint r ~now:1. ~src Wire.Nf_feedback.Decr in
  let check name t expected = Alcotest.(check (option action)) name expected (Netfence.Router.validate r ~now:1.2 t ~src) in
  check "intact token accepted" tok (Some Wire.Nf_feedback.Decr);
  check "tampered MAC rejected"
    { tok with Wire.Nf_feedback.nf_mac = Int64.add tok.Wire.Nf_feedback.nf_mac 1L }
    None;
  (* Flipping Decr to Incr is the attack NetFence's MAC exists to stop:
     the action is part of the preimage, so the old MAC no longer
     verifies. *)
  check "flipped action rejected" { tok with Wire.Nf_feedback.nf_action = Wire.Nf_feedback.Incr } None;
  Alcotest.(check (option action))
    "token bound to sender" None
    (Netfence.Router.validate r ~now:1.2 tok ~src:other);
  let lifetime = float_of_int Netfence.Router.default_params.Netfence.Router.token_lifetime in
  Alcotest.(check (option action))
    "stale token rejected" None
    (Netfence.Router.validate r ~now:(1. +. lifetime +. 2.) tok ~src);
  Alcotest.(check bool) "rejections counted" true (Netfence.Router.rejected r > 0)

let shared_master_validates_across_routers () =
  (* NetFence's pairwise keys, modeled as one shared master: a token
     minted by router 7 must verify at any other router of the run, and
     must not at a router with a different master. *)
  let _s1, minter = make_router ~router_id:7 () in
  let _s2, peer = make_router ~router_id:9 () in
  let _s3, stranger = make_router ~router_id:9 ~secret_master:"other" () in
  let tok = Netfence.Router.mint minter ~now:1. ~src Wire.Nf_feedback.Incr in
  Alcotest.(check (option action))
    "peer accepts" (Some Wire.Nf_feedback.Incr)
    (Netfence.Router.validate peer ~now:1.2 tok ~src);
  Alcotest.(check (option action))
    "stranger rejects" None
    (Netfence.Router.validate stranger ~now:1.2 tok ~src)

let rotate_invalidates () =
  let _sim, r = make_router () in
  let tok = Netfence.Router.mint r ~now:1. ~src Wire.Nf_feedback.Incr in
  Netfence.Router.rotate_secret r;
  Alcotest.(check (option action))
    "token dies with the key" None
    (Netfence.Router.validate r ~now:1.2 tok ~src)

(* Two senders flooding through a shared bottleneck, the second joining
   late from the small initial rate: AIMD must pull their policed rates
   within 10% of each other (Chiu-Jain), i.e. fairness is enforced at the
   access router regardless of how fast either host transmits. *)
let aimd_converges_to_equal_rates () =
  let sim = Sim.create ~seed:3 () in
  let topo =
    Topology.dumbbell ~n_users:0 ~n_attackers:2
      ~make_qdisc:(fun ~bandwidth_bps -> Netfence.Router.make_qdisc ~bandwidth_bps)
      sim
  in
  let router node =
    let r =
      Netfence.Router.create ~secret_master:"k" ~router_id:(Net.node_id node) ~sim
        ~link_bps:10e6 ()
    in
    Net.set_handler node (Netfence.Router.handler r);
    r
  in
  let left = router topo.Topology.left in
  let _right = router topo.Topology.right in
  let _dst_host = Netfence.Host.create ~auto_reply:true ~node:topo.Topology.destination () in
  let start_flood host ~at =
    let h = Netfence.Host.create ~node:host () in
    let rec send () =
      (* 1000 B / 1 ms = 8 Mb/s offered per sender, far above fair share. *)
      Netfence.Host.send_raw h ~dst:Topology.destination_addr ~bytes:1000;
      Sim.schedule sim ~delay:0.001 send
    in
    Sim.schedule_at sim ~time:at send
  in
  start_flood topo.Topology.attackers.(0) ~at:0.;
  start_flood topo.Topology.attackers.(1) ~at:10.;
  Sim.run ~until:60. sim;
  match Netfence.Router.sender_rates left with
  | [ (_, r1); (_, r2) ] ->
      let hi = Float.max r1 r2 and lo = Float.min r1 r2 in
      Alcotest.(check bool)
        (Printf.sprintf "rates within 10%% (%.0f vs %.0f bps)" r1 r2)
        true
        ((hi -. lo) /. hi <= 0.10);
      Alcotest.(check bool)
        (Printf.sprintf "combined rate tracks the bottleneck (%.0f bps)" (r1 +. r2))
        true
        (r1 +. r2 <= 1.3 *. 10e6 && r1 +. r2 >= 2e6);
      Alcotest.(check bool) "overload was policed" true (Netfence.Router.policed left > 0)
  | rates -> Alcotest.failf "expected 2 policed senders, got %d" (List.length rates)

(* Tokens: the old per-packet [Printf] preimage against the router's
   scratch-buffer path, for minted tags and for validation, over random
   router ids (negatives included), addresses, timestamps and both
   actions. *)
let reference_mac ~secret_master ~now ~src ~router ~ts ~action =
  let key = Crypto.Secret.issuing_secret (Crypto.Secret.create ~master:secret_master) ~now in
  Crypto.Keyed_hash.Fast.mac56 ~key
    (Printf.sprintf "nf|%d|%d|%d|%d" (Wire.Addr.to_int src) router ts
       (Wire.Nf_feedback.action_bit action))

let tokens_match_reference =
  QCheck.Test.make ~name:"netfence: mint/validate = Printf-preimage reference" ~count:300
    QCheck.(
      pair
        (triple (string_of_size Gen.(int_range 0 40)) int int)
        (triple (int_range 0 Wire.Addr.(to_int broadcast)) (int_range 0 255) bool))
    (fun ((secret_master, router_id, peer), (src, ts, incr)) ->
      let src = Wire.Addr.of_int src in
      let action = if incr then Wire.Nf_feedback.Incr else Wire.Nf_feedback.Decr in
      let now = float_of_int ts +. 0.25 in
      let _, r = make_router ~router_id ~secret_master () in
      let minted = Netfence.Router.mint r ~now ~src action in
      let peer_mac = reference_mac ~secret_master ~now ~src ~router:peer ~ts ~action in
      let peer_tok =
        { Wire.Nf_feedback.nf_router = peer; nf_ts = ts; nf_action = action; nf_mac = peer_mac }
      in
      Int64.equal minted.Wire.Nf_feedback.nf_mac
        (reference_mac ~secret_master ~now ~src ~router:router_id ~ts ~action)
      && Netfence.Router.validate r ~now peer_tok ~src = Some action
      && Netfence.Router.validate r ~now
           { peer_tok with Wire.Nf_feedback.nf_mac = Int64.logxor peer_mac 1L }
           ~src
         = None)

(* A valid token's check writes its preimage into the router's scratch
   buffer: no per-packet string, and a small fixed allocation (the boxed
   hash, the option results). *)
let validate_allocation_budget () =
  let budget = 12. and iters = 4000 in
  let _, r = make_router () in
  let tok = Netfence.Router.mint r ~now:1. ~src Wire.Nf_feedback.Incr in
  let check () = Netfence.Router.validate r ~now:1.2 tok ~src in
  Alcotest.(check (option action)) "valid" (Some Wire.Nf_feedback.Incr) (check ());
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (check ()))
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int iters in
  if per_call > budget then
    Alcotest.failf "validate allocates %.2f minor words/call (budget %g)" per_call budget

let suite =
  [
    Alcotest.test_case "feedback MAC roundtrip" `Quick mac_roundtrip;
    Alcotest.test_case "forgery rejected" `Quick forgery_rejected;
    Alcotest.test_case "shared master cross-validates" `Quick shared_master_validates_across_routers;
    Alcotest.test_case "rotation invalidates" `Quick rotate_invalidates;
    Alcotest.test_case "aimd converges" `Quick aimd_converges_to_equal_rates;
    QCheck_alcotest.to_alcotest tokens_match_reference;
    Alcotest.test_case "validate allocation" `Quick validate_allocation_budget;
  ]
