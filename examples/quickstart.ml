(* Quickstart: the smallest complete TVA network.

   Two hosts separated by two capability routers; the client fetches 20 KB
   from the server.  Watch the capability lifecycle: the SYN goes out as a
   request, routers stamp pre-capabilities, the server's policy converts
   them into a 32 KB / 10 s grant riding the SYN/ACK, and the data then
   flows as regular packets (full capability list once, 48-bit nonce
   afterwards).

   Run with: dune exec examples/quickstart.exe *)

let () =
  let sim = Sim.create ~seed:42 () in
  let params = Tva.Params.default in
  let net = Net.create sim in

  (* Topology: client -- r1 -- r2 -- server, 10 Mb/s everywhere. *)
  let make_qdisc () = Tva.Qdiscs.make ~params ~bandwidth_bps:10e6 () in
  let sink _node ~in_link:_ _p = () in
  let client_node = Net.add_node ~addr:(Wire.Addr.of_int 0x0a000001) ~name:"client" net sink in
  let r1 = Net.add_node ~name:"r1" net sink in
  let r2 = Net.add_node ~name:"r2" net sink in
  let server_node = Net.add_node ~addr:(Wire.Addr.of_int 0xc0a80001) ~name:"server" net sink in
  let connect a b =
    ignore (Net.duplex net a b ~bandwidth_bps:10e6 ~delay:0.005 ~qdisc:make_qdisc)
  in
  connect client_node r1;
  connect r1 r2;
  connect r2 server_node;
  Net.compute_routes net;

  (* Every router and host counts its verdicts in its own counters. *)
  let counters node = Obs.Counters.create ~name:(Net.node_name node) () in

  (* Capability routers. *)
  let install node =
    let obs = counters node in
    let router =
      Tva.Router.create ~params ~obs ~secret_master:("secret" ^ Net.node_name node)
        ~router_id:(Net.node_id node) ~sim ~link_bps:10e6 ()
    in
    Net.set_handler node (Tva.Router.handler router);
    obs
  in
  let router1 = install r1 in
  let router2 = install r2 in

  (* Hosts: the client accepts reverse requests from servers it contacted;
     the server grants every first request a default budget. *)
  let client_obs = counters client_node and server_obs = counters server_node in
  let client_host =
    Tva.Host.create ~params ~obs:client_obs ~policy:(Tva.Policy.client ()) ~node:client_node
      ~rng:(Rng.split (Sim.rng sim)) ()
  in
  let server_host =
    Tva.Host.create ~params ~obs:server_obs ~policy:(Tva.Policy.server ()) ~node:server_node
      ~rng:(Rng.split (Sim.rng sim)) ()
  in

  (* One 20 KB transfer over the toy TCP. *)
  let server_agent =
    Tcp.Conn.create_server ~sim ~conn_id:1
      ~tx:(fun seg -> Tva.Host.send_segment server_host ~dst:(Tva.Host.addr client_host) seg)
      ()
  in
  Tva.Host.set_segment_handler server_host (fun ~src:_ seg -> Tcp.Conn.server_receive server_agent seg);
  let client_agent =
    Tcp.Conn.create_client ~sim ~conn_id:1 ~transfer_bytes:(20 * 1024)
      ~tx:(fun seg -> Tva.Host.send_segment client_host ~dst:(Tva.Host.addr server_host) seg)
      ~on_complete:(fun outcome ->
        match outcome with
        | Tcp.Conn.Completed { duration } ->
            Printf.printf "transfer completed in %.3f s of virtual time\n" duration
        | Tcp.Conn.Aborted { reason; _ } -> Printf.printf "transfer aborted: %s\n" reason)
      ()
  in
  Tva.Host.set_segment_handler client_host (fun ~src:_ seg -> Tcp.Conn.client_receive client_agent seg);
  Tcp.Conn.start client_agent;

  Sim.run ~until:10. sim;

  let c = Obs.Counters.get client_obs and s = Obs.Counters.get server_obs in
  Printf.printf "client: %d requests sent, %d grants received, %d renewals sent\n"
    (c Obs.Event.Request_sent) (c Obs.Event.Grant_received) (c Obs.Event.Renewal_sent);
  Printf.printf "server: %d grants issued, %d requests refused\n" (s Obs.Event.Grant_issued)
    (s Obs.Event.Request_refused);
  (* A nonce hit that was not demoted is a packet accepted from the cache. *)
  let pr name obs =
    let k = Obs.Counters.get obs in
    Printf.printf
      "%s: %d requests stamped, %d nonce hits, %d validated via capability hashes, %d demoted\n"
      name (k Obs.Event.Request_in) (k Obs.Event.Nonce_hit) (k Obs.Event.Regular_validated)
      (k Obs.Event.Demoted)
  in
  pr "r1" router1;
  pr "r2" router2
