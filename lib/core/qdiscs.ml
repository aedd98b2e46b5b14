let request_path_id (p : Wire.Packet.t) =
  match p.Wire.Packet.shim with None -> 0 | Some shim -> Path_id.most_recent shim

(* TVA's shim classifier, as the class index of the [Priority] link
   scheduler: requests 0, regular 1, and legacy 2.  Routers demote invalid
   packets before they are queued, so a demoted shim is legacy. *)
let classify_by_shim (p : Wire.Packet.t) =
  match p.Wire.Packet.shim with
  | None -> 2
  | Some shim ->
      if shim.Wire.Cap_shim.demoted then 2
      else begin
        match shim.Wire.Cap_shim.kind with
        | Wire.Cap_shim.Request _ -> 0
        | Wire.Cap_shim.Regular _ -> 1
      end

let dst_key (p : Wire.Packet.t) = Wire.Addr.to_int p.Wire.Packet.dst
let src_key (p : Wire.Packet.t) = Wire.Addr.to_int p.Wire.Packet.src

let build ?(regular_key = `Destination) ~(params : Params.t) ~bandwidth_bps ~request_inner () =
  let request =
    Token_bucket.create ~name:"request-limiter" ~mtu:params.Params.mtu
      ~rate_bps:(params.Params.request_fraction *. bandwidth_bps)
      ~burst_bytes:params.Params.request_burst_bytes ~inner:request_inner ()
  in
  let classify, name =
    match regular_key with
    | `Destination -> (dst_key, "regular-per-dest")
    | `Source -> (src_key, "regular-per-source")
  in
  let regular =
    Drr.create ~name ~quantum:params.Params.mtu
      ~queue_capacity_bytes:params.Params.queue_capacity_bytes
      ~max_queues:(Params.flow_cache_capacity params ~link_bps:bandwidth_bps)
      ~classify ()
  in
  let legacy =
    Droptail.create ~name:"legacy-fifo" ~capacity_bytes:params.Params.queue_capacity_bytes ()
  in
  Priority.create ~name:"tva-link" ~classify:classify_by_shim
    ~classes:[ request; regular; legacy ] ()

let make ?regular_key ~params ~bandwidth_bps () =
  let request_inner =
    Drr.create ~name:"request-per-pathid" ~quantum:256
      ~queue_capacity_bytes:(params.Params.queue_capacity_bytes / 4)
      ~max_queues:params.Params.max_path_id_queues ~classify:request_path_id ()
  in
  build ?regular_key ~params ~bandwidth_bps ~request_inner ()

let make_sfq_requests ~params ~bandwidth_bps ~buckets ~seed =
  let request_inner =
    Sfq.create ~name:"request-sfq" ~quantum:256
      ~queue_capacity_bytes:(params.Params.queue_capacity_bytes / 4)
      ~seed ~buckets ~flow_key:request_path_id ()
  in
  build ~params ~bandwidth_bps ~request_inner ()
