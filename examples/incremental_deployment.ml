(* Incremental deployment (paper Sec. 8): TVA needs no flag day.  Routers
   are upgraded at trust boundaries and congestion points; hosts behind
   legacy-only paths still communicate (as low-priority legacy traffic),
   and each additional upgraded router intercepts floods earlier.

   The demo builds a 4-router chain with the congested link in the middle,
   an attacker entering at the edge, and compares three deployments:
   no TVA routers, TVA at the congestion point only, and TVA everywhere.

   Run with: dune exec examples/incremental_deployment.exe *)

let params = Tva.Params.default

type deployment = { label : string; upgraded : int -> bool }

let run { label; upgraded } =
  let sim = Sim.create ~seed:7 () in
  let net = Net.create sim in
  let sink _node ~in_link:_ _p = () in
  let n_routers = 4 in
  let congested_hop = 1 (* the link between routers 1 and 2 is the 10 Mb/s pinch *) in
  let qdisc_for i =
    (* The queue on a link belongs to its upstream router. *)
    if upgraded i then fun ~bandwidth_bps -> Tva.Qdiscs.make ~params ~bandwidth_bps ()
    else fun ~bandwidth_bps -> Baseline.Internet.make_qdisc ~bandwidth_bps
  in
  let routers =
    Array.init n_routers (fun i -> Net.add_node ~name:(Printf.sprintf "r%d" i) net sink)
  in
  let link_bandwidth hop = if hop = congested_hop then 10e6 else 100e6 in
  for i = 0 to n_routers - 2 do
    ignore
      (Net.duplex net routers.(i) routers.(i + 1) ~bandwidth_bps:(link_bandwidth i) ~delay:0.005
         ~qdisc:(fun () -> (qdisc_for i) ~bandwidth_bps:(link_bandwidth i)))
  done;
  let source = Net.add_node ~addr:(Wire.Addr.of_int 0x0a000001) ~name:"source" net sink in
  let attacker = Net.add_node ~addr:(Wire.Addr.of_int 0x0b000001) ~name:"attacker" net sink in
  let destination = Net.add_node ~addr:(Wire.Addr.of_int 0xc0a80001) ~name:"dest" net sink in
  let attach host router qdisc_idx =
    ignore
      (Net.duplex net host router ~bandwidth_bps:100e6 ~delay:0.005
         ~qdisc:(fun () -> (qdisc_for qdisc_idx) ~bandwidth_bps:100e6))
  in
  attach source routers.(0) 0;
  attach attacker routers.(0) 0;
  attach destination routers.(n_routers - 1) (n_routers - 1);
  Net.compute_routes net;
  Array.iteri
    (fun i node ->
      if upgraded i then begin
        let router =
          Tva.Router.create ~params ~secret_master:(Printf.sprintf "secret-%d" i) ~router_id:i
            ~sim ~link_bps:(link_bandwidth (min i (n_routers - 2))) ()
        in
        Net.set_handler node (Tva.Router.handler router)
      end
      else Net.set_handler node Baseline.Internet.router_handler)
    routers;
  (* TVA hosts at both ends (the upgraded-host story: proxies at the
     customer edge). *)
  let src_host =
    Tva.Host.create ~params ~policy:(Tva.Policy.client ()) ~node:source
      ~rng:(Rng.split (Sim.rng sim)) ()
  in
  let dst_host =
    Tva.Host.create ~params ~policy:(Tva.Policy.server ()) ~node:destination
      ~rng:(Rng.split (Sim.rng sim)) ()
  in
  (* Attacker floods the destination with legacy traffic at 10x the pinch. *)
  let flood_interval = 8000. /. 100e6 in
  let rec flood () =
    Net.originate attacker
      (Wire.Packet.make ~src:(Wire.Addr.of_int 0x0b000001) ~dst:(Wire.Addr.of_int 0xc0a80001)
         (Wire.Packet.Raw 1000));
    Sim.schedule sim ~delay:flood_interval flood
  in
  flood ();
  (* The source repeatedly fetches 20 KB; measure mean transfer time. *)
  let times = Stats.Summary.create () in
  let aborts = ref 0 in
  let conn = ref 0 in
  let server_conns = Hashtbl.create 8 in
  Tva.Host.set_segment_handler dst_host (fun ~src seg ->
      let key = (Wire.Addr.to_int src, seg.Wire.Tcp_segment.conn) in
      let server =
        match Hashtbl.find_opt server_conns key with
        | Some s -> s
        | None ->
            let s =
              Tcp.Conn.create_server ~sim ~conn_id:seg.Wire.Tcp_segment.conn
                ~tx:(fun reply -> Tva.Host.send_segment dst_host ~dst:src reply)
                ()
            in
            Hashtbl.add server_conns key s;
            s
      in
      Tcp.Conn.server_receive server seg);
  let rec next_transfer () =
    incr conn;
    let c =
      Tcp.Conn.create_client ~sim ~conn_id:!conn ~transfer_bytes:(20 * 1024)
        ~tx:(fun seg -> Tva.Host.send_segment src_host ~dst:(Tva.Host.addr dst_host) seg)
        ~on_complete:(fun outcome ->
          (match outcome with
          | Tcp.Conn.Completed { duration } -> Stats.Summary.add times duration
          | Tcp.Conn.Aborted _ -> incr aborts);
          Sim.schedule sim ~delay:0. next_transfer)
        ()
    in
    Tva.Host.set_segment_handler src_host (fun ~src:_ seg -> Tcp.Conn.client_receive c seg);
    Tcp.Conn.start c
  in
  next_transfer ();
  Sim.run ~until:30. sim;
  Printf.printf "  %-28s %3d transfers, %2d aborts, mean %6s\n" label (Stats.Summary.count times)
    !aborts
    (if Stats.Summary.count times = 0 then "-"
     else Printf.sprintf "%.2fs" (Stats.Summary.mean times))

let () =
  Printf.printf
    "A 4-router chain with a 10 Mb/s pinch between r1 and r2; an attacker at\n\
     the edge floods the destination at 10x the pinch capacity.\n\n";
  List.iter run
    [
      { label = "no TVA routers"; upgraded = (fun _ -> false) };
      { label = "TVA at congestion point"; upgraded = (fun i -> i = 1) };
      { label = "TVA everywhere"; upgraded = (fun _ -> true) };
    ];
  Printf.printf
    "\nUpgrading just the congestion point already restores service: the\n\
     capability queue forms exactly where bandwidth is scarce.  Wider\n\
     deployment intercepts the flood earlier but does not change the outcome\n\
     for this path (Sec. 8's incremental-deployment argument).\n"
