module Transfer_client = struct
  type t = {
    sim : Sim.t;
    endpoint : Scheme.endpoint;
    server : Wire.Addr.t;
    transfer_bytes : int;
    max_transfers : int;
    conn_base : int;
    metrics : Metrics.t;
    on_all_done : unit -> unit;
    mutable done_count : int;
    mutable current : Tcp.Conn.client option;
  }

  let finished t = t.done_count >= t.max_transfers

  let rec start_next t =
    if not (finished t) then begin
      let conn_id = t.conn_base + t.done_count in
      Metrics.record_start t.metrics;
      let client =
        Tcp.Conn.create_client ~sim:t.sim ~conn_id ~transfer_bytes:t.transfer_bytes
          ~tx:(fun seg -> t.endpoint.Scheme.ep_send_segment ~dst:t.server seg)
          ~on_complete:(fun outcome ->
            Metrics.record_outcome t.metrics ~now:(Sim.now t.sim) ~bytes:t.transfer_bytes outcome;
            t.done_count <- t.done_count + 1;
            t.current <- None;
            if finished t then t.on_all_done ()
            else
              (* Back-to-back transfers, as in the paper; a fresh event
                 keeps the call stack flat. *)
              Sim.schedule ~kind:Sim.Kind.agent t.sim ~delay:0. (fun () -> start_next t))
          ()
      in
      t.current <- Some client;
      Tcp.Conn.start client
    end

  let create ~sim ~endpoint ~server ~transfer_bytes ~max_transfers ?(start_at = 0.)
      ?(conn_base = 0) ~metrics ?(on_all_done = fun () -> ()) () =
    let t =
      {
        sim;
        endpoint;
        server;
        transfer_bytes;
        max_transfers;
        conn_base;
        metrics;
        on_all_done;
        done_count = 0;
        current = None;
      }
    in
    endpoint.Scheme.ep_set_demux (fun ~src seg ->
        if Wire.Addr.equal src server then begin
          match t.current with
          | Some client when Tcp.Conn.client_conn_id client = seg.Wire.Tcp_segment.conn ->
              Tcp.Conn.client_receive client seg
          | Some _ | None -> () (* stale segment from a finished transfer *)
        end);
    Sim.schedule_at ~kind:Sim.Kind.agent sim ~time:start_at (fun () -> start_next t);
    t
end

module Transfer_server = struct
  type t = {
    sim : Sim.t;
    endpoint : Scheme.endpoint;
    conns : (int * int, Tcp.Conn.server) Hashtbl.t;
  }

  let create ~sim ~endpoint () =
    let t = { sim; endpoint; conns = Hashtbl.create 64 } in
    endpoint.Scheme.ep_set_demux (fun ~src seg ->
        let key = (Wire.Addr.to_int src, seg.Wire.Tcp_segment.conn) in
        let server =
          match Hashtbl.find_opt t.conns key with
          | Some s -> s
          | None ->
              let s =
                Tcp.Conn.create_server ~sim ~conn_id:seg.Wire.Tcp_segment.conn
                  ~tx:(fun reply -> endpoint.Scheme.ep_send_segment ~dst:src reply)
                  ()
              in
              Hashtbl.add t.conns key s;
              s
        in
        Tcp.Conn.server_receive server seg);
    t
end

module Flooder = struct
  type mode = Legacy | Request | Authorized | Misbehaving

  let start ~sim ~endpoint ~dst ~rate_bps ?(pkt_bytes = 1000) ?(start_at = 0.) ?stop_at ?rng
      ~mode () =
    if rate_bps <= 0. then invalid_arg "Flooder.start: rate must be positive";
    let interval = float_of_int pkt_bytes *. 8. /. rate_bps in
    let send =
      match mode with
      | Legacy -> endpoint.Scheme.ep_send_legacy
      | Request -> endpoint.Scheme.ep_send_request
      | Authorized -> endpoint.Scheme.ep_send_raw
      | Misbehaving -> endpoint.Scheme.ep_flood_misbehaving
    in
    let rng = match rng with Some r -> r | None -> Rng.split (Sim.rng sim) in
    (* A one-member source group: the tick re-arms itself, so a packet
       costs no closure and no event-heap push. *)
    let tick _ =
      let now = Sim.now sim in
      let stopped = match stop_at with Some s -> now >= s | None -> false in
      if not stopped then begin
        send ~dst ~bytes:pkt_bytes;
        (* ±5% per-packet jitter: pure CBR in a deterministic simulator
           phase-locks with TCP's whole-second timers, which makes losses
           systematically repeat instead of being independent per try. *)
        let jitter = 0.95 +. Rng.float rng 0.1 in
        Sim.rearm sim ~delay:(interval *. jitter)
      end
    in
    (* A random phase per flooder: otherwise all CBR sources fire in
       lockstep and the victim queue drains between synchronized bursts,
       making the flood artificially harmless. *)
    let phase = Rng.float rng interval in
    Sim.source_at (Sim.group ~kind:Sim.Kind.agent sim tick) ~member:0 ~time:(start_at +. phase)
end
