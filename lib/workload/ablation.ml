type comparison = {
  label_a : string;
  result_a : Experiment.result;
  label_b : string;
  result_b : Experiment.result;
}

let params = Scenario.sim_params

(* The standard dumbbell with a variant's scheme and attack; every variant
   of every ablation is one [Experiment.run] of such a config. *)
let config ~transfers ~max_time ~seed scheme attack =
  {
    Experiment.default with
    Experiment.scheme;
    attack;
    transfers_per_user = transfers;
    max_time;
    seed;
  }

(* Each ablation compares two self-contained variant runs; [Pool.map] over
   the two-element variant list keeps A/B labelling (and output) identical
   to the sequential order while letting [~jobs:2] overlap the runs. *)
let ab_pair ~jobs run variant_a variant_b =
  match Pool.map ~jobs run [ variant_a; variant_b ] with
  | [ a; b ] -> (a, b)
  | _ -> assert false

(* --- Sec. 7: per-source vs per-destination queueing -------------------- *)

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
    let attack sim (scheme : Scheme.t) (topo : Topology.t) =
      let colluder = Option.get topo.Topology.colluder in
      let colluder_addr = Topology.colluder_addr in
      let victim_addr = Topology.user_addr 0 in
      let fast = (module Crypto.Keyed_hash.Fast : Crypto.Keyed_hash.S) in
      let n_kb = 1023 and t_sec = 63 in
      (* One physical attacker host is enough: it spoofs S on every packet
         and scales its flood rate. *)
      let net = topo.Topology.net in
      let attacker_addr = Topology.attacker_addr 0 in
      let attacker =
        Topology.attach_host ~bandwidth_bps:100e6 ~make_qdisc:scheme.Scheme.make_qdisc ~net
          ~router:topo.Topology.left ~addr:attacker_addr ~name:"spoofer" ()
      in
      Net.compute_routes net;
      let caps_ref = ref None in
      Net.set_handler attacker (fun _ ~in_link:_ p ->
          match p.Wire.Packet.shim with
          | Some { Wire.Cap_shim.return_info = Some (Wire.Cap_shim.Grant { caps; _ }); _ }
            when caps <> [] ->
              caps_ref := Some caps
          | Some _ | None -> ());
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
    let r = Experiment.run (config ~transfers ~max_time ~seed scheme (Experiment.Custom attack)) in
    (* The victim is user 0 — the one whose address is spoofed. *)
    let m = List.hd r.Experiment.user_metrics in
    {
      r with
      Experiment.fraction_completed = Metrics.fraction_completed m;
      avg_transfer_time = Metrics.avg_transfer_time m;
      metrics = m;
    }
  in
  let result_a, result_b = ab_pair ~jobs run `Destination `Source in
  { label_a = "per-destination (TVA default)"; result_a; label_b = "per-source"; result_b }

(* --- Sec. 3.6: flow-cache provisioning ---------------------------------- *)

let state_provisioning ?(jobs = 1) ?(n_attacker_flows = 100) ?(transfers = 20) ?(max_time = 60.)
    ?(seed = 1) () =
  let run router_params =
    (* [router_params] sizes the routers' flow caches only: the link
       schedulers size their per-source queues from the same rate floor, so
       they keep the default params. *)
    let scheme sim =
      let base = Scheme.tva ~params:router_params () sim in
      {
        base with
        Scheme.make_qdisc = (fun ~bandwidth_bps -> Tva.Qdiscs.make ~params ~bandwidth_bps ());
      }
    in
    let attack sim (scheme : Scheme.t) (topo : Topology.t) =
      let colluder = Option.get topo.Topology.colluder in
      (* The colluder hands out the smallest conforming grants so attacker
         flows are cheap to keep alive (4 KB / 10 s ≈ 410 B/s each). *)
      ignore
        (scheme.Scheme.make_endpoint colluder ~role:Scheme.Colluder
           ~policy:(Tva.Policy.allow_all ~n_kb:4 ~t_sec:10 ()));
      let flooder ~addr ~name =
        let node =
          Topology.attach_host ~make_qdisc:scheme.Scheme.make_qdisc ~net:topo.Topology.net
            ~router:topo.Topology.left ~addr ~name ()
        in
        scheme.Scheme.make_endpoint node ~role:Scheme.Attacker ~policy:(Tva.Policy.client ())
      in
      (* Send just above N/T so the cache entry never becomes
         reclaimable. *)
      for i = 0 to n_attacker_flows - 1 do
        Agents.Flooder.start ~sim
          ~endpoint:(flooder ~addr:(Topology.attacker_addr i) ~name:(Printf.sprintf "flow%d" i))
          ~dst:Topology.colluder_addr ~rate_bps:4000. ~pkt_bytes:250
          ~mode:Agents.Flooder.Authorized ()
      done;
      (* Plus a plain legacy flood to make demotion hurt: demoted users
         share the lowest class with this. *)
      for i = 0 to 39 do
        Agents.Flooder.start ~sim
          ~endpoint:
            (flooder
               ~addr:(Topology.attacker_addr (1000 + i))
               ~name:(Printf.sprintf "legacy%d" i))
          ~dst:Topology.destination_addr ~rate_bps:1e6 ~mode:Agents.Flooder.Legacy ()
      done;
      Net.compute_routes topo.Topology.net
    in
    (* The legitimate users are *new* flows arriving after the attacker
       flows have been running for a while: the cache-exhaustion attack
       targets flow setup, not flows already in cache. *)
    Experiment.run
      {
        (config ~transfers ~max_time ~seed scheme (Experiment.Custom attack)) with
        Experiment.user_start = 5.0;
      }
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
  let run make_qdisc =
    let scheme sim =
      let base = Scheme.tva ~params () sim in
      { base with Scheme.make_qdisc }
    in
    let attack = Experiment.Request_flood { rate_bps = 1e6 } in
    Experiment.run { (config ~transfers ~max_time ~seed scheme attack) with Experiment.n_attackers }
  in
  let result_a, result_b =
    ab_pair ~jobs run
      (fun ~bandwidth_bps -> Tva.Qdiscs.make ~params ~bandwidth_bps ())
      (fun ~bandwidth_bps -> Tva.Qdiscs.make_sfq_requests ~params ~bandwidth_bps ~buckets ~seed:1)
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
