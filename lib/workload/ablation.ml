type comparison = {
  label_a : string;
  result_a : Experiment.result;
  label_b : string;
  result_b : Experiment.result;
}

let params = Scenario.sim_params

(* A hand-rolled experiment skeleton for the ablations that need attacks
   the standard harness does not model (spoofing, state exhaustion).
   Returns the per-user metrics and the dumbbell so callers can wire in
   custom attackers before the run starts. *)
let run_custom ?(n_users = 10) ?(with_colluder = false) ?(transfers = 20) ?(max_time = 60.)
    ?(seed = 1) ?(user_start = 0.01) ~scheme ~attach_attack () =
  let sim = Sim.create ~seed () in
  let scheme = scheme sim in
  let topo =
    Topology.dumbbell ~n_users ~with_colluder ~n_attackers:0
      ~make_qdisc:(fun ~bandwidth_bps -> scheme.Scheme.make_qdisc ~bandwidth_bps)
      sim
  in
  scheme.Scheme.install_router topo.Topology.left ~link_bps:10e6;
  scheme.Scheme.install_router topo.Topology.right ~link_bps:10e6;
  let dest_endpoint =
    scheme.Scheme.make_endpoint topo.Topology.destination ~role:Scheme.Destination
      ~policy:(Tva.Policy.server ~suspicious:Experiment.attacker_oracle ())
  in
  let _server = Agents.Transfer_server.create ~sim ~endpoint:dest_endpoint () in
  let metrics = Metrics.create () in
  let per_user =
    Array.to_list
      (Array.mapi
         (fun i user ->
           let endpoint =
             scheme.Scheme.make_endpoint user ~role:Scheme.User ~policy:(Tva.Policy.client ())
           in
           let m = Metrics.create () in
           ignore
             (Agents.Transfer_client.create ~sim ~endpoint ~server:Topology.destination_addr
                ~transfer_bytes:(20 * 1024) ~max_transfers:transfers
                ~start_at:(user_start +. (0.011 *. float_of_int i))
                ~conn_base:((i + 1) * 1_000_000)
                ~metrics:m ());
           m)
         topo.Topology.users)
  in
  attach_attack ~sim ~topo;
  Sim.run ~until:max_time sim;
  List.iter (Metrics.merge_into metrics) per_user;
  let horizon = Float.max (Sim.now sim) 1e-9 in
  let goodputs =
    List.map (fun m -> float_of_int (Metrics.bytes_completed m) *. 8. /. horizon) per_user
  in
  let result user_metrics =
    {
      Experiment.scheme_name = scheme.Scheme.name;
      fraction_completed = Metrics.fraction_completed user_metrics;
      avg_transfer_time = Metrics.avg_transfer_time user_metrics;
      metrics = user_metrics;
      user_goodputs = goodputs;
      jain_index = Metrics.jain_index goodputs;
      sim_end = Sim.now sim;
      events = Sim.events_processed sim;
      obs = None;
      flight = None;
    }
  in
  (result metrics, List.map result per_user)

(* --- Sec. 7: per-source vs per-destination queueing -------------------- *)

(* Each ablation compares two self-contained variant runs; [Pool.map] over
   the two-element variant list keeps A/B labelling (and output) identical
   to the sequential order while letting [~jobs:2] overlap the runs. *)
let ab_pair ~jobs run variant_a variant_b =
  match Pool.map ~jobs run [ variant_a; variant_b ] with
  | [ a; b ] -> (a, b)
  | _ -> assert false

let queueing_discipline ?(jobs = 1) ?(n_attackers = 20) ?(transfers = 20) ?(max_time = 60.)
    ?(seed = 1) () =
  let run key =
    let scheme sim =
      let base = Scheme.tva ~params () sim in
      {
        base with
        Scheme.make_qdisc =
          (fun ~bandwidth_bps -> Tva.Qdiscs.make ~regular_key:key ~params ~bandwidth_bps ());
      }
    in
    let attach_attack ~sim ~(topo : Topology.t) =
      let colluder = match topo.Topology.colluder with Some c -> c | None -> assert false in
      let colluder_addr = match Net.node_addr colluder with Some a -> a | None -> assert false in
      let victim_addr = Topology.user_addr 0 in
      let fast = (module Crypto.Keyed_hash.Fast : Crypto.Keyed_hash.S) in
      let n_kb = 1023 and t_sec = 63 in
      (* One physical attacker host is enough: it spoofs S on every packet
         and scales its flood rate. *)
      let net = topo.Topology.net in
      let attacker_addr = Topology.attacker_addr 0 in
      let caps_ref = ref None in
      let attacker =
        Net.add_node ~addr:attacker_addr ~name:"spoofer" net (fun _ ~in_link:_ p ->
            match p.Wire.Packet.shim with
            | Some { Wire.Cap_shim.return_info = Some (Wire.Cap_shim.Grant { caps; _ }); _ }
              when caps <> [] ->
                caps_ref := Some caps
            | Some _ | None -> ())
      in
      ignore
        (Net.duplex net attacker topo.Topology.left ~bandwidth_bps:100e6 ~delay:0.010
           ~qdisc:(fun () -> Tva.Qdiscs.make ~regular_key:key ~params ~bandwidth_bps:100e6 ()));
      Net.compute_routes net;
      (* The colluder grants (src = S, dst = colluder) requests, returning
         the capabilities to the attacker's real address. *)
      Net.set_handler colluder (fun _ ~in_link:_ p ->
          match p.Wire.Packet.shim with
          | Some { Wire.Cap_shim.kind = Wire.Cap_shim.Request req; _ } ->
              let caps =
                List.map
                  (fun precap -> Tva.Capability.cap_of_precap ~hash:fast ~precap ~n_kb ~t_sec)
                  (Wire.Cap_shim.precaps req)
              in
              let shim = Wire.Cap_shim.request () in
              shim.Wire.Cap_shim.return_info <- Some (Wire.Cap_shim.Grant { n_kb; t_sec; caps });
              Net.originate colluder
                (Wire.Packet.make ~shim ~src:colluder_addr ~dst:attacker_addr (Wire.Packet.Raw 64))
          | Some _ | None -> ());
      let rate_bps = float_of_int n_attackers *. 1e6 in
      let interval = 1000. *. 8. /. rate_bps in
      let nonce = ref 1L in
      let sent_caps = ref false in
      let budget = ref 0 in
      let last_request = ref neg_infinity in
      let rng = Rng.split (Sim.rng sim) in
      let rec tick () =
        let now = Sim.now sim in
        (match !caps_ref with
        | Some caps when !budget > 2000 ->
            let shim =
              Wire.Cap_shim.regular ~nonce:!nonce
                ~caps:(if !sent_caps then [] else caps)
                ~n_kb ~t_sec ~renewal:false ()
            in
            sent_caps := true;
            let p =
              Wire.Packet.make ~shim ~src:victim_addr ~dst:colluder_addr
                (Wire.Packet.Raw 1000)
            in
            budget := !budget - Wire.Packet.size p;
            Net.originate attacker p
        | Some _ | None ->
            if now -. !last_request > 0.5 then begin
              last_request := now;
              caps_ref := None;
              sent_caps := false;
              nonce := Int64.add !nonce 1L;
              budget := n_kb * 1024;
              let shim = Wire.Cap_shim.request () in
              Net.originate attacker
                (Wire.Packet.make ~shim ~src:victim_addr ~dst:colluder_addr
                   (Wire.Packet.Raw 64))
            end);
        Sim.schedule ~kind:Sim.Kind.agent sim ~delay:(interval *. (0.95 +. Rng.float rng 0.1)) tick
      in
      Sim.schedule_at ~kind:Sim.Kind.agent sim ~time:(Rng.float rng interval) tick
    in
    let _, per_user =
      run_custom ~with_colluder:true ~transfers ~max_time ~seed ~scheme ~attach_attack ()
    in
    (* The victim is user 0 — the one whose address is spoofed. *)
    List.hd per_user
  in
  let result_a, result_b = ab_pair ~jobs run `Destination `Source in
  { label_a = "per-destination (TVA default)"; result_a; label_b = "per-source"; result_b }

(* --- Sec. 3.6: flow-cache provisioning ---------------------------------- *)

let state_provisioning ?(jobs = 1) ?(n_attacker_flows = 100) ?(transfers = 20) ?(max_time = 60.)
    ?(seed = 1) () =
  let run router_params =
    let scheme sim =
      let base = Scheme.tva ~params () sim in
      {
        base with
        Scheme.install_router =
          (fun ?obs:_ node ~link_bps ->
            let router =
              Tva.Router.create ~params:router_params
                ~secret_master:("tva-secret-" ^ string_of_int (Net.node_id node))
                ~router_id:(Net.node_id node) ~sim ~link_bps ()
            in
            Net.set_handler node (Tva.Router.handler router));
      }
    in
    let attach_attack ~sim ~(topo : Topology.t) =
      let scheme_for_attackers = Scheme.tva ~params () sim in
      let colluder = match topo.Topology.colluder with Some c -> c | None -> assert false in
      let colluder_addr = match Net.node_addr colluder with Some a -> a | None -> assert false in
      (* The colluder hands out the smallest conforming grants so attacker
         flows are cheap to keep alive (4 KB / 10 s ≈ 410 B/s each). *)
      let _colluder_ep =
        scheme_for_attackers.Scheme.make_endpoint colluder ~role:Scheme.Colluder
          ~policy:(Tva.Policy.allow_all ~n_kb:4 ~t_sec:10 ())
      in
      let net = topo.Topology.net in
      for i = 0 to n_attacker_flows - 1 do
        let node =
          Net.add_node ~addr:(Topology.attacker_addr i)
            ~name:(Printf.sprintf "flow%d" i)
            net
            (fun _ ~in_link:_ _ -> ())
        in
        ignore
          (Net.duplex net node topo.Topology.left ~bandwidth_bps:10e6 ~delay:0.010
             ~qdisc:(fun () -> Tva.Qdiscs.make ~params ~bandwidth_bps:10e6 ()));
        Net.compute_routes net;
        let ep =
          scheme_for_attackers.Scheme.make_endpoint node ~role:Scheme.Attacker
            ~policy:(Tva.Policy.client ())
        in
        (* Send just above N/T so the cache entry never becomes
           reclaimable. *)
        Agents.Flooder.start ~sim ~endpoint:ep ~dst:colluder_addr ~rate_bps:4000. ~pkt_bytes:250
          ~mode:Agents.Flooder.Authorized ()
      done;
      Net.compute_routes net;
      (* Plus a plain legacy flood to make demotion hurt: demoted users
         share the lowest class with this. *)
      for i = 0 to 39 do
        let node =
          Net.add_node
            ~addr:(Topology.attacker_addr (1000 + i))
            ~name:(Printf.sprintf "legacy%d" i)
            net
            (fun _ ~in_link:_ _ -> ())
        in
        ignore
          (Net.duplex net node topo.Topology.left ~bandwidth_bps:10e6 ~delay:0.010
             ~qdisc:(fun () -> Tva.Qdiscs.make ~params ~bandwidth_bps:10e6 ()));
        Net.compute_routes net;
        let ep =
          scheme_for_attackers.Scheme.make_endpoint node ~role:Scheme.Attacker
            ~policy:(Tva.Policy.client ())
        in
        Agents.Flooder.start ~sim ~endpoint:ep ~dst:Topology.destination_addr ~rate_bps:1e6
          ~mode:Agents.Flooder.Legacy ()
      done
    in
    (* The legitimate users are *new* flows arriving after the attacker
       flows have been running for a while: the cache-exhaustion attack
       targets flow setup, not flows already in cache. *)
    let all, _ =
      run_custom ~with_colluder:true ~transfers ~max_time ~seed ~user_start:5.0 ~scheme
        ~attach_attack ()
    in
    all
  in
  let result_a, result_b =
    (* An absurd rate floor shrinks C/(N/T)min to the 64-record minimum. *)
    ab_pair ~jobs run params { params with Tva.Params.min_rate_bytes_per_sec = 1e9 }
  in
  {
    label_a = "provisioned: C/(N/T)min records";
    result_a;
    label_b = "under-provisioned: 64 records";
    result_b;
  }

(* --- Sec. 3.9: request queueing discipline -------------------------------- *)

let request_queueing ?(jobs = 1) ?(n_attackers = 100) ?(buckets = 8) ?(transfers = 20)
    ?(max_time = 60.) ?(seed = 1) () =
  let run (make_qdisc, label) =
    ignore label;
    let scheme sim =
      let base = Scheme.tva ~params () sim in
      { base with Scheme.make_qdisc }
    in
    Experiment.run
      {
        Experiment.default with
        Experiment.scheme;
        n_attackers;
        attack = Experiment.Request_flood { rate_bps = 1e6 };
        transfers_per_user = transfers;
        max_time;
        seed;
      }
  in
  let result_a, result_b =
    ab_pair ~jobs run
      ((fun ~bandwidth_bps -> Tva.Qdiscs.make ~params ~bandwidth_bps ()), "drr")
      ( (fun ~bandwidth_bps -> Tva.Qdiscs.make_sfq_requests ~params ~bandwidth_bps ~buckets ~seed:1),
        "sfq" )
  in
  {
    label_a = "requests fair-queued per path-id";
    result_a;
    label_b = Printf.sprintf "requests SFQ over %d buckets" buckets;
    result_b;
  }

let render c =
  let table =
    Stats.Table.create ~columns:[ "variant"; "fraction_completed"; "avg_transfer_time_s" ]
  in
  let row label (r : Experiment.result) =
    Stats.Table.add_row table
      [
        label;
        Printf.sprintf "%.3f" r.Experiment.fraction_completed;
        (if Float.is_nan r.Experiment.avg_transfer_time then "-"
         else Printf.sprintf "%.3f" r.Experiment.avg_transfer_time);
      ]
  in
  row c.label_a c.result_a;
  row c.label_b c.result_b;
  table
