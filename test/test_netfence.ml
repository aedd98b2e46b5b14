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
  let sim = Sim.create () in
  let obs = Obs.Counters.create ~name:"r" () in
  let r = Netfence.Router.create ~obs ~secret_master:"k" ~router_id:7 ~sim ~link_bps:10e6 () in
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
  Alcotest.(check int) "rejections counted" 4 (Obs.Counters.get obs Obs.Event.Nf_token_rejected)

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
  let left_obs = Obs.Counters.create ~name:"left" () in
  let router ?obs node =
    let r =
      Netfence.Router.create ?obs ~secret_master:"k" ~router_id:(Net.node_id node) ~sim
        ~link_bps:10e6 ()
    in
    Net.set_handler node (Netfence.Router.handler r);
    r
  in
  let left = router ~obs:left_obs topo.Topology.left in
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
      Alcotest.(check bool) "overload was policed" true
        (Obs.Counters.get left_obs Obs.Event.Nf_policed > 0)
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

(* Minor words per call of [f i] over [iters] calls, after one untimed
   call [f 0]. *)
let words_per_call ?(iters = 4000) f =
  ignore (Sys.opaque_identity (f 0));
  let w0 = Gc.minor_words () in
  for i = 1 to iters do
    ignore (Sys.opaque_identity (f i))
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let check_words name ~budget f =
  let per_call = words_per_call f in
  if per_call > budget then
    Alcotest.failf "%s allocates %.2f minor words/call (budget %g)" name per_call budget

(* A valid token's check writes its preimage into the router's scratch
   buffer: no per-packet string, and a small fixed allocation (the boxed
   hash, the option results).  One token, presented again and again,
   is a memo hit after the first call. *)
let validate_allocation_budget () =
  let _, r = make_router () in
  let tok = Netfence.Router.mint r ~now:1. ~src Wire.Nf_feedback.Incr in
  Alcotest.(check (option action))
    "valid" (Some Wire.Nf_feedback.Incr)
    (Netfence.Router.validate r ~now:1.2 tok ~src);
  check_words "validate" ~budget:12. (fun _ -> Netfence.Router.validate r ~now:1.2 tok ~src)

(* Each call a token of a fresh source, minted beforehand: every check
   misses the memo and computes the MAC. *)
let validate_miss_allocation () =
  let _, r = make_router () in
  let fresh i = Wire.Addr.of_int (0x0b000000 + i) in
  let toks =
    Array.init 4001 (fun i -> Netfence.Router.mint r ~now:1. ~src:(fresh i) Wire.Nf_feedback.Incr)
  in
  check_words "validate (fresh sources)" ~budget:12. (fun i ->
      Netfence.Router.validate r ~now:1.2 toks.(i) ~src:(fresh i))

(* Memo hits compute no MAC: a hit [mint] returns the cached token
   (measured 0 words), a hit [validate] allocates only its [Some]
   (measured 2). *)
let mint_hit_allocation () =
  let _, r = make_router () in
  check_words "mint (memo hit)" ~budget:1. (fun _ ->
      Netfence.Router.mint r ~now:1. ~src Wire.Nf_feedback.Incr)

let validate_hit_allocation () =
  let _, r = make_router () in
  let tok = Netfence.Router.mint r ~now:1. ~src Wire.Nf_feedback.Incr in
  check_words "validate (memo hit)" ~budget:3. (fun _ ->
      Netfence.Router.validate r ~now:1.2 tok ~src)

(* --- per-flow memos: a differential against the uncached MAC ----------- *)

(* The reference model mints and validates with the MAC computed every
   time over the Printf preimage, under the chain the router holds after
   [rotations] calls of [rotate_secret] (each derives from the master
   suffixed with ["#" ^ count]). *)
let chain ~rotations =
  Crypto.Secret.create ~master:(if rotations = 0 then "k" else "k#" ^ string_of_int rotations)

let uncached_mac ~key ~src ~router ~ts ~action =
  Crypto.Keyed_hash.Fast.mac56 ~key
    (Printf.sprintf "nf|%d|%d|%d|%d" (Wire.Addr.to_int src) router ts
       (Wire.Nf_feedback.action_bit action))

let uncached_mint secret ~now ~src action =
  let ts = Crypto.Secret.timestamp ~now in
  let key = Crypto.Secret.issuing_secret secret ~now in
  {
    Wire.Nf_feedback.nf_router = 7;
    nf_ts = ts;
    nf_action = action;
    nf_mac = uncached_mac ~key ~src ~router:7 ~ts ~action;
  }

let uncached_validate secret ~now (tok : Wire.Nf_feedback.token) ~src =
  let open Wire.Nf_feedback in
  let age = (Crypto.Secret.timestamp ~now - tok.nf_ts) land 0xff in
  if age > Netfence.Router.default_params.Netfence.Router.token_lifetime then None
  else
    let key = Crypto.Secret.validating_secret secret ~now ~ts:tok.nf_ts in
    if String.length key > 0
       && Int64.equal tok.nf_mac
            (uncached_mac ~key ~src ~router:tok.nf_router ~ts:tok.nf_ts ~action:tok.nf_action)
    then Some tok.nf_action
    else None

type memo_op =
  | Mint of Wire.Nf_feedback.action
  | Validate of (int * int)  (** a recent token (by age), and how it is tampered *)
  | Packet of (int * int) option  (** from the attached host, presenting that token or none *)
  | Rotate
  | Flush

(* How far a step moves the clock: not at all, within the token lifetime,
   past it, past a 128 s rotation, or onto the next epoch boundary. *)
let advance now = function
  | 0 -> now
  | 1 -> now +. 0.5
  | 2 -> now +. 1.75
  | 3 -> now +. 130.
  | _ -> 128. *. (floor (now /. 128.) +. 1.)

let memo_step_gen =
  let open QCheck.Gen in
  let token = pair (int_range 0 7) (frequency [ (4, return 0); (1, int_range 1 3) ]) in
  triple
    (frequencyl [ (3, 0); (3, 1); (2, 2); (1, 3); (1, 4) ])
    (* a few hot sources that hit the memos, and more distinct cold ones
       than they have slots, which evict and collide *)
    (map Wire.Addr.of_int (frequency [ (1, int_range 0 7); (2, int_range 0 100_000) ]))
    (frequency
       [
         (3, map (fun incr -> Mint (if incr then Incr else Decr)) bool);
         (3, map (fun (k, tm) -> Validate (k, tm)) token);
         (4, map (fun t -> Packet t) (opt token));
         (1, return Rotate);
         (1, return Flush);
       ])

let print_step (a, src, op) =
  let tok (k, tm) = Printf.sprintf "%d/%d" k tm in
  Printf.sprintf "(%d,%d,%s)" a (Wire.Addr.to_int src)
    (match op with
    | Mint a -> Format.asprintf "mint %a" Wire.Nf_feedback.pp_action a
    | Validate (k, tm) -> "validate " ^ tok (k, tm)
    | Packet None -> "packet"
    | Packet (Some t) -> "packet " ^ tok t
    | Rotate -> "rotate"
    | Flush -> "flush")

(* One long-lived router under steps that cross token lifetimes and epoch
   boundaries, rotate its secret and flush its senders.  Minted and
   stamped tokens, [validate] verdicts and the [rejected] count must equal
   the uncached model's at every step.  Per-sender policing state is
   checked against one more router per source, which sees only that
   source's packets and so never shares a memo slot: rates and policed
   counts must add up to the same. *)
let memos_match_uncached =
  QCheck.Test.make ~name:"netfence: memoized tokens = uncached MAC" ~count:50
    (QCheck.make
       ~print:(fun steps -> String.concat "; " (List.map print_step steps))
       QCheck.Gen.(list_size (int_range 300 1000) memo_step_gen))
    (fun steps ->
      let sim = Sim.create () in
      let net = Net.create sim in
      let sink _ ~in_link:_ _ = () in
      let host = Net.add_node ~addr:(Wire.Addr.of_int 0x0a0000ff) ~name:"h" net sink in
      let node = Net.add_node ~name:"r" net sink in
      let dst = Wire.Addr.of_int 0xc0a80001 in
      let qdisc () = Netfence.Router.make_qdisc ~bandwidth_bps:10e6 in
      let from_host, _ = Net.duplex net host node ~bandwidth_bps:10e6 ~delay:0.001 ~qdisc in
      let far = Net.add_node ~addr:dst ~name:"d" net sink in
      ignore (Net.duplex net node far ~bandwidth_bps:10e6 ~delay:0.001 ~qdisc);
      Net.compute_routes net;
      let obs = Obs.Counters.create ~name:"r" () in
      let r = Netfence.Router.create ~obs ~secret_master:"k" ~router_id:7 ~sim ~link_bps:10e6 () in
      let rotations = ref 0 and secret = ref (chain ~rotations:0) in
      let rejected = ref 0 and pool = ref [] in
      let per_source = Hashtbl.create 64 in
      let router_for src =
        match Hashtbl.find_opt per_source src with
        | Some x -> x
        | None ->
            let c = Obs.Counters.create ~name:"per-source" () in
            let x =
              Netfence.Router.create ~obs:c ~secret_master:"k" ~router_id:7 ~sim ~link_bps:10e6 ()
            in
            for _ = 1 to !rotations do
              Netfence.Router.rotate_secret x
            done;
            Hashtbl.add per_source src (x, c);
            (x, c)
      in
      let fail fmt = QCheck.Test.fail_reportf ("t=%g: " ^^ fmt) (Sim.now sim) in
      let pick (k, tamper) ~src =
        match List.nth_opt !pool (k mod max 1 (List.length !pool)) with
        | None -> None
        | Some (owner, tok) ->
            let open Wire.Nf_feedback in
            Some
              (match tamper with
              | 0 -> (owner, tok)
              | 1 -> (owner, { tok with nf_mac = Int64.logxor tok.nf_mac 1L })
              | 2 -> (owner, { tok with nf_action = (if tok.nf_action = Incr then Decr else Incr) })
              | _ -> (src, tok))
      in
      let check_validate ~now ~src tok got =
        let want = uncached_validate !secret ~now tok ~src in
        if want = None then incr rejected;
        if got <> want then fail "validate verdict differs from the uncached MAC's";
        let got = Obs.Counters.get obs Obs.Event.Nf_token_rejected in
        if got <> !rejected then fail "rejected %d, model %d" got !rejected
      in
      let check_senders () =
        let rates =
          Hashtbl.fold (fun _ (x, _) acc -> Netfence.Router.sender_rates x @ acc) per_source []
          |> List.sort (fun (a, _) (b, _) -> Wire.Addr.compare a b)
        in
        if Netfence.Router.sender_rates r <> rates then fail "sender rates differ per source";
        let policed c = Obs.Counters.get c Obs.Event.Nf_policed in
        let per_source = Hashtbl.fold (fun _ (_, c) n -> n + policed c) per_source 0 in
        if policed obs <> per_source then
          fail "policed %d, per source %d" (policed obs) per_source
      in
      let run_step (_, src, op) () =
        let now = Sim.now sim in
        match op with
        | Mint a ->
            let tok = Netfence.Router.mint r ~now ~src a in
            if tok <> uncached_mint !secret ~now ~src a then fail "minted token differs";
            pool := (src, tok) :: !pool
        | Validate t -> (
            match pick t ~src with
            | None -> ()
            | Some (src, tok) ->
                check_validate ~now ~src tok (Netfence.Router.validate r ~now tok ~src))
        | Packet t ->
            let src, tok =
              match Option.bind t (pick ~src) with
              | None -> (src, None)
              | Some (s, tok) -> (s, Some tok)
            in
            let header () =
              match tok with
              | None -> Wire.Nf_feedback.empty ()
              | Some tok -> Wire.Nf_feedback.with_token tok
            in
            let nf = header () in
            Netfence.Router.handler r node ~in_link:(Some from_host)
              (Wire.Packet.make ~nf ~src ~dst (Wire.Packet.Raw 500));
            Netfence.Router.handler (fst (router_for src)) node ~in_link:(Some from_host)
              (Wire.Packet.make ~nf:(header ()) ~src ~dst (Wire.Packet.Raw 500));
            (match tok with
            | Some tok -> check_validate ~now ~src tok (uncached_validate !secret ~now tok ~src)
            | None -> ());
            (match nf.Wire.Nf_feedback.stamped with
            | Some st ->
                if st <> uncached_mint !secret ~now ~src st.Wire.Nf_feedback.nf_action then
                  fail "stamped token differs";
                pool := (src, st) :: !pool
            | None -> ());
            check_senders ()
        | Rotate ->
            Netfence.Router.rotate_secret r;
            Hashtbl.iter (fun _ (x, _) -> Netfence.Router.rotate_secret x) per_source;
            incr rotations;
            secret := chain ~rotations:!rotations
        | Flush ->
            Netfence.Router.flush_senders r;
            Hashtbl.iter (fun _ (x, _) -> Netfence.Router.flush_senders x) per_source;
            if Netfence.Router.sender_count r <> 0 then fail "senders survive a flush";
            check_senders ()
      in
      ignore
        (List.fold_left
           (fun now ((a, _, _) as st) ->
             let now = advance now a in
             Sim.schedule_at sim ~time:now (run_step st);
             now)
           0. steps);
      Sim.run sim;
      true)

let suite =
  [
    Alcotest.test_case "feedback MAC roundtrip" `Quick mac_roundtrip;
    Alcotest.test_case "forgery rejected" `Quick forgery_rejected;
    Alcotest.test_case "shared master cross-validates" `Quick shared_master_validates_across_routers;
    Alcotest.test_case "rotation invalidates" `Quick rotate_invalidates;
    Alcotest.test_case "aimd converges" `Quick aimd_converges_to_equal_rates;
    QCheck_alcotest.to_alcotest tokens_match_reference;
    Alcotest.test_case "validate allocation" `Quick validate_allocation_budget;
    Alcotest.test_case "validate miss allocation" `Quick validate_miss_allocation;
    Alcotest.test_case "mint hit allocation" `Quick mint_hit_allocation;
    Alcotest.test_case "validate hit allocation" `Quick validate_hit_allocation;
    QCheck_alcotest.to_alcotest memos_match_uncached;
  ]
