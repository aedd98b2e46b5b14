type role = User | Attacker | Destination | Colluder

type endpoint = {
  ep_addr : Wire.Addr.t;
  ep_send_segment : dst:Wire.Addr.t -> Wire.Tcp_segment.t -> unit;
  ep_set_demux : (src:Wire.Addr.t -> Wire.Tcp_segment.t -> unit) -> unit;
  ep_send_raw : dst:Wire.Addr.t -> bytes:int -> unit;
  ep_send_legacy : dst:Wire.Addr.t -> bytes:int -> unit;
  ep_send_request : dst:Wire.Addr.t -> bytes:int -> unit;
  ep_flood_misbehaving : dst:Wire.Addr.t -> bytes:int -> unit;
  ep_reacquire_latencies : unit -> float list;
}

type t = {
  name : string;
  make_qdisc : bandwidth_bps:float -> Qdisc.t;
  install_router : ?obs:Obs.Counters.t -> Net.node -> link_bps:float -> unit;
  make_endpoint : ?obs:Obs.Counters.t -> Net.node -> role:role -> policy:Tva.Policy.t -> endpoint;
  report_caches : unit -> Obs.Report.cache_row list;
  cache_occupancy : unit -> int;
  fault_targets : unit -> Faults.Inject.router_site list;
}

type factory = Sim.t -> t

(* --- TVA ------------------------------------------------------------ *)

(* The Fig. 11 attacker: copy the grant out of the host the moment it
   arrives and keep flooding with it, ignoring the byte budget.  Over-limit
   packets are demoted by routers; once the grant's T has passed the local
   copy is dropped, a (refused) re-request goes out and flooding continues
   as legacy traffic. *)
let tva_misbehaving_flood host sim =
  let node = Tva.Host.node host in
  let local : Tva.Host.grant option ref = ref None in
  let sent_caps = ref false in
  let last_request = ref neg_infinity in
  fun ~dst ~bytes ->
    let now = Sim.now sim in
    (match Tva.Host.grant_for host ~dst with
    | Some g ->
        (match !local with
        | Some l when Int64.equal l.Tva.Host.nonce g.Tva.Host.nonce -> ()
        | Some _ | None ->
            local := Some g;
            sent_caps := false)
    | None -> ());
    (match !local with
    | Some g when now -. g.Tva.Host.granted_at > float_of_int g.Tva.Host.t_sec -> local := None
    | Some _ | None -> ());
    match !local with
    | Some g ->
        let caps = if !sent_caps then [] else g.Tva.Host.caps in
        sent_caps := true;
        let shim =
          Wire.Cap_shim.regular ~nonce:g.Tva.Host.nonce ~caps ~n_kb:g.Tva.Host.n_kb
            ~t_sec:g.Tva.Host.t_sec ~renewal:false ()
        in
        Net.originate node
          (Wire.Packet.make ~shim ~src:(Tva.Host.addr host) ~dst
             (Wire.Packet.Raw bytes))
    | None ->
        (* Authorization gone and renewals refused: the damage of the bad
           grant is spent.  Keep asking (refused) once a second; flooding
           on as legacy traffic would be the separate Fig. 8 scenario. *)
        ignore bytes;
        if now -. !last_request > 1.0 then begin
          last_request := now;
          Tva.Host.send_request_flood_packet host ~dst ~bytes:64
        end

let tva ?(params = Tva.Params.default) () : factory =
 fun sim ->
  (* Routers created this run, in creation order, so the flow-cache report
     (and the fault-target list) is deterministic. *)
  let routers : (string * Net.node * Tva.Router.t) list ref = ref [] in
  {
    name = "tva";
    make_qdisc = (fun ~bandwidth_bps -> Tva.Qdiscs.make ~params ~bandwidth_bps ());
    install_router =
      (fun ?obs node ~link_bps ->
        let router =
          Tva.Router.create ~params ?obs
            ~secret_master:("tva-secret-" ^ string_of_int (Net.node_id node))
            ~router_id:(Net.node_id node) ~sim:(Net.node_sim node) ~link_bps ()
        in
        routers := (Net.node_name node, node, router) :: !routers;
        Net.set_handler node (Tva.Router.handler router));
    report_caches =
      (fun () ->
        List.rev_map
          (fun (name, _node, router) ->
            let cache = Tva.Router.cache router in
            {
              Obs.Report.c_router = name;
              c_size = Tva.Flow_cache.size cache;
              c_capacity = Tva.Flow_cache.capacity cache;
              c_evictions = Tva.Flow_cache.evictions cache;
              c_hwm = Tva.Flow_cache.hwm cache;
            })
          !routers);
    cache_occupancy =
      (* Telemetry's flow-cache level channel: an int fold over the live
         routers, so the tick path never builds the report rows. *)
      (fun () ->
        List.fold_left
          (fun acc (_, _, router) -> acc + Tva.Flow_cache.size (Tva.Router.cache router))
          0 !routers);
    fault_targets =
      (fun () ->
        List.rev_map
          (fun (name, node, router) ->
            {
              Faults.Inject.rs_name = name;
              rs_node = node;
              rs_wipe_cache = (fun () -> Tva.Router.flush_cache router);
              rs_rotate_secret = (fun () -> Tva.Router.rotate_secret router);
            })
          !routers);
    make_endpoint =
      (fun ?obs node ~role ~policy ->
        let auto_reply = match role with Destination | Colluder -> true | User | Attacker -> false in
        let host =
          Tva.Host.create ~params ~auto_reply ?obs ~policy ~node ~rng:(Rng.split (Sim.rng sim))
            ()
        in
        {
          ep_addr = Tva.Host.addr host;
          ep_send_segment = Tva.Host.send_segment host;
          ep_set_demux = Tva.Host.set_segment_handler host;
          ep_send_raw = Tva.Host.send_raw host;
          ep_send_legacy = Tva.Host.send_legacy host;
          ep_send_request = Tva.Host.send_request_flood_packet host;
          ep_flood_misbehaving = tva_misbehaving_flood host (Net.node_sim node);
          ep_reacquire_latencies = (fun () -> Tva.Host.reacquire_latencies host);
        });
  }

(* --- SIFF ----------------------------------------------------------- *)

let siff_misbehaving_flood host sim rotation =
  let addr = Siff.Host.addr host in
  let local = ref None in
  let obtained = ref neg_infinity in
  let last_request = ref neg_infinity in
  fun ~dst ~bytes ->
    let now = Sim.now sim in
    (match Siff.Host.markings_for host ~dst with
    | Some m when !local <> Some m ->
        local := Some m;
        obtained := now
    | Some _ | None -> ());
    (* Routers accept current-or-previous epoch, so markings die at most
       2 rotation periods after issue; keep hammering until then. *)
    if !local <> None && now -. !obtained > 2. *. rotation then local := None;
    match !local with
    | Some markings ->
        let siff = Wire.Siff_marking.dta ~markings in
        Net.originate (Siff.Host.node host)
          (Wire.Packet.make ~siff ~src:addr ~dst (Wire.Packet.Raw bytes))
    | None ->
        ignore bytes;
        if now -. !last_request > 1.0 then begin
          last_request := now;
          Siff.Host.send_raw host ~dst ~bytes:64 (* no markings: goes out as EXP *)
        end

let siff ?(rotation_period = Siff.Router.default_rotation_period) () : factory =
 fun _sim ->
  {
    name = "siff";
    make_qdisc = (fun ~bandwidth_bps -> Siff.Router.make_qdisc ~bandwidth_bps);
    report_caches = (fun () -> []);
    cache_occupancy = (fun () -> 0);
    install_router =
      (fun ?obs:_ node ~link_bps:_ ->
        let router =
          Siff.Router.create ~rotation_period
            ~secret_master:("siff-secret-" ^ string_of_int (Net.node_id node))
            ~router_id:(Net.node_id node) ~sim:(Net.node_sim node) ()
        in
        Net.set_handler node (Siff.Router.handler router));
    fault_targets = (fun () -> []);
    make_endpoint =
      (fun ?obs:_ node ~role ~policy ->
        let auto_reply = match role with Destination | Colluder -> true | User | Attacker -> false in
        let host = Siff.Host.create ~rotation_period ~auto_reply ~policy ~node () in
        {
          ep_addr = Siff.Host.addr host;
          ep_send_segment = Siff.Host.send_segment host;
          ep_set_demux = Siff.Host.set_segment_handler host;
          ep_send_raw = Siff.Host.send_raw host;
          ep_send_legacy = Siff.Host.send_legacy host;
          ep_send_request =
            (fun ~dst ~bytes ->
              let siff = Wire.Siff_marking.exp_packet () in
              Net.originate node
                (Wire.Packet.make ~siff ~src:(Siff.Host.addr host) ~dst (Wire.Packet.Raw bytes)));
          ep_flood_misbehaving = siff_misbehaving_flood host (Net.node_sim node) rotation_period;
          ep_reacquire_latencies = (fun () -> []);
        });
  }

(* --- NetFence -------------------------------------------------------- *)

let netfence ?(params = Netfence.Router.default_params) () : factory =
 fun _sim ->
  (* Routers created this run, in creation order; one shared secret master
     models NetFence's pairwise inter-AS key agreement, so any access
     router can validate any bottleneck's feedback tokens. *)
  let routers : (string * Net.node * Netfence.Router.t) list ref = ref [] in
  {
    name = "netfence";
    make_qdisc = (fun ~bandwidth_bps -> Netfence.Router.make_qdisc ~bandwidth_bps);
    install_router =
      (fun ?obs:_ node ~link_bps ->
        let router =
          Netfence.Router.create ~params ~secret_master:"netfence-as-pairwise-key"
            ~router_id:(Net.node_id node) ~sim:(Net.node_sim node) ~link_bps ()
        in
        routers := (Net.node_name node, node, router) :: !routers;
        Net.set_handler node (Netfence.Router.handler router));
    report_caches = (fun () -> []);
    cache_occupancy =
      (* Telemetry's state-occupancy channel: live (sender, bottleneck)
         policing entries across the run's routers. *)
      (fun () ->
        List.fold_left
          (fun acc (_, _, router) -> acc + Netfence.Router.sender_count router)
          0 !routers);
    fault_targets =
      (fun () ->
        List.rev_map
          (fun (name, node, router) ->
            {
              Faults.Inject.rs_name = name;
              rs_node = node;
              rs_wipe_cache = (fun () -> Netfence.Router.flush_senders router);
              rs_rotate_secret = (fun () -> Netfence.Router.rotate_secret router);
            })
          !routers);
    make_endpoint =
      (fun ?obs:_ node ~role ~policy:_ ->
        let auto_reply = match role with Destination | Colluder -> true | User | Attacker -> false in
        let host = Netfence.Host.create ~auto_reply ~node () in
        {
          ep_addr = Netfence.Host.addr host;
          ep_send_segment = Netfence.Host.send_segment host;
          ep_set_demux = Netfence.Host.set_segment_handler host;
          ep_send_raw = Netfence.Host.send_raw host;
          ep_send_legacy = Netfence.Host.send_legacy host;
          (* NetFence has no request channel: a "request" is just a packet
             sent while still in the bootstrap rate-limiter state. *)
          ep_send_request = Netfence.Host.send_raw host;
          (* A misbehaving sender floods through the normal header path —
             keeping the feedback loop alive is in its interest, and the
             access-router policer is what contains it. *)
          ep_flood_misbehaving = Netfence.Host.send_raw host;
          ep_reacquire_latencies = (fun () -> []);
        });
  }

(* --- Pushback and legacy Internet ------------------------------------ *)

let plain_endpoint node =
  let host = Baseline.Internet.Host.create ~node in
  let send_raw ~dst ~bytes = Baseline.Internet.Host.send_raw host ~dst ~bytes in
  {
    ep_addr = Baseline.Internet.Host.addr host;
    ep_send_segment = Baseline.Internet.Host.send_segment host;
    ep_set_demux = Baseline.Internet.Host.set_segment_handler host;
    ep_send_raw = send_raw;
    ep_send_legacy = send_raw;
    ep_send_request = send_raw;
    ep_flood_misbehaving = send_raw;
    ep_reacquire_latencies = (fun () -> []);
  }

let pushback ?(interval = 1.0) () : factory =
 fun sim ->
  let controller = Pushback.create ~interval ~sim () in
  {
    name = "pushback";
    make_qdisc = (fun ~bandwidth_bps -> Pushback.make_qdisc controller ~bandwidth_bps);
    install_router = (fun ?obs:_ node ~link_bps:_ -> Pushback.install controller node);
    report_caches = (fun () -> []);
    cache_occupancy = (fun () -> 0);
    fault_targets = (fun () -> []);
    make_endpoint = (fun ?obs:_ node ~role:_ ~policy:_ -> plain_endpoint node);
  }

let internet () : factory =
 fun _sim ->
  {
    name = "internet";
    make_qdisc = (fun ~bandwidth_bps -> Baseline.Internet.make_qdisc ~bandwidth_bps);
    install_router =
      (fun ?obs:_ node ~link_bps:_ -> Net.set_handler node Baseline.Internet.router_handler);
    report_caches = (fun () -> []);
    cache_occupancy = (fun () -> 0);
    fault_targets = (fun () -> []);
    make_endpoint = (fun ?obs:_ node ~role:_ ~policy:_ -> plain_endpoint node);
  }
