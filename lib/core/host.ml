type grant = {
  caps : Wire.Cap_shim.cap list;
  nonce : int64;
  n_kb : int;
  t_sec : int;
  granted_at : float;
  mutable bytes_sent : int;
  mutable caps_carried : bool;
}

type dest_state = {
  mutable grant : grant option;
  mutable renewal_sent_at : float option;
  mutable lost_at : float option;
      (* when a demotion echo (or refusal after one) cancelled the grant;
         cleared on reacquisition.  The earliest loss time is kept. *)
  mutable reacquire_request_at : float option;
      (* first request sent after [lost_at] — the reacquisition latency is
         measured from here, so request-channel queueing counts and the
         time we merely sat without traffic to send does not. *)
}

type t = {
  params : Params.t;
  hash : Capability.keyed;
  sim : Sim.t;
  node : Net.node;
  addr : Wire.Addr.t;
  policy : Policy.t;
  rng : Rng.t;
  auto_reply : bool;
  dests : dest_state Wire.Addr.Tbl.t;
  pending_return : Wire.Cap_shim.return_info Wire.Addr.Tbl.t;
  pending_demotion_echo : unit Wire.Addr.Tbl.t;
  demoted_srcs : unit Wire.Addr.Tbl.t;
      (* sources whose last capability-bearing packet arrived demoted;
         cleared (counting [Demoted_recovered]) on the next clean regular
         packet from them *)
  mutable on_segment : src:Wire.Addr.t -> Wire.Tcp_segment.t -> unit;
  obs : Obs.Counters.t;
  mutable rev_reacquire_latencies : float list;
}

let addr t = t.addr
let node t = t.node

let set_segment_handler t f = t.on_segment <- f

let dest_state t dst =
  match Wire.Addr.Tbl.find_opt t.dests dst with
  | Some ds -> ds
  | None ->
      let ds =
        { grant = None; renewal_sent_at = None; lost_at = None; reacquire_request_at = None }
      in
      Wire.Addr.Tbl.add t.dests dst ds;
      ds

let grant_for t ~dst = (dest_state t dst).grant
let reacquire_latencies t = List.rev t.rev_reacquire_latencies

let fresh_nonce t = Int64.logand (Rng.bits64 t.rng) 0xffffffffffffL

let grant_expired t g ~now =
  ignore t;
  now -. g.granted_at >= float_of_int g.t_sec || g.bytes_sent >= g.n_kb * 1024

(* Decide the shim for one outgoing packet to [dst]. *)
let choose_shim t ~dst =
  let now = Sim.now t.sim in
  let ds = dest_state t dst in
  (match ds.grant with
  | Some g when grant_expired t g ~now -> ds.grant <- None
  | Some _ | None -> ());
  match ds.grant with
  | None ->
      (match (ds.lost_at, ds.reacquire_request_at) with
      | Some _, None -> ds.reacquire_request_at <- Some now
      | _, _ -> ());
      Policy.note_outgoing_request t.policy ~now ~dst;
      Obs.Counters.incr t.obs Obs.Event.Request_sent;
      Wire.Cap_shim.request ()
  | Some g ->
      let n_bytes = g.n_kb * 1024 in
      let age = now -. g.granted_at in
      let renewal_due =
        float_of_int g.bytes_sent > t.params.Params.renewal_bytes_threshold *. float_of_int n_bytes
        || age > t.params.Params.renewal_time_threshold *. float_of_int g.t_sec
      in
      let renewal_allowed =
        match ds.renewal_sent_at with None -> true | Some at -> now -. at > 1.0
      in
      if renewal_due && renewal_allowed then begin
        ds.renewal_sent_at <- Some now;
        (* A renewal is contact too: a client policy that saw only the
           first request would refuse the peer's return-path requests
           [window] seconds into a conversation that keeps renewing. *)
        Policy.note_outgoing_request t.policy ~now ~dst;
        Obs.Counters.incr t.obs Obs.Event.Renewal_sent;
        g.caps_carried <- true;
        Wire.Cap_shim.regular ~nonce:g.nonce ~caps:g.caps ~n_kb:g.n_kb ~t_sec:g.t_sec
          ~renewal:true ()
      end
      else if not g.caps_carried then begin
        g.caps_carried <- true;
        Wire.Cap_shim.regular ~nonce:g.nonce ~caps:g.caps ~n_kb:g.n_kb ~t_sec:g.t_sec
          ~renewal:false ()
      end
      else
        Wire.Cap_shim.regular ~nonce:g.nonce ~caps:[] ~n_kb:g.n_kb ~t_sec:g.t_sec ~renewal:false ()

(* Piggyback anything we owe the peer: a grant first (it unblocks their
   sending), otherwise a demotion echo. *)
let attach_return_info t ~dst (shim : Wire.Cap_shim.t) =
  match Wire.Addr.Tbl.find_opt t.pending_return dst with
  | Some info ->
      Wire.Addr.Tbl.remove t.pending_return dst;
      shim.Wire.Cap_shim.return_info <- Some info
  | None ->
      if Wire.Addr.Tbl.mem t.pending_demotion_echo dst then begin
        Wire.Addr.Tbl.remove t.pending_demotion_echo dst;
        Obs.Counters.incr t.obs Obs.Event.Demotion_echo_sent;
        shim.Wire.Cap_shim.return_info <- Some Wire.Cap_shim.Demotion_notice
      end

let dispatch t ~dst ?shim body =
  let p = Wire.Packet.make ?shim ~src:t.addr ~dst body in
  (* Charge the grant for what the routers will see on the wire.  Only a
     regular packet charges one, so only a regular packet looks it up. *)
  (match shim with
  | Some { Wire.Cap_shim.kind = Wire.Cap_shim.Regular _; _ } -> (
      match grant_for t ~dst with
      | Some g -> g.bytes_sent <- g.bytes_sent + Wire.Packet.size p
      | None -> ())
  | Some _ | None -> ());
  Net.originate t.node p

let send_body t ~dst body =
  let shim = choose_shim t ~dst in
  attach_return_info t ~dst shim;
  dispatch t ~dst ~shim body

let send_segment t ~dst seg = send_body t ~dst (Wire.Packet.Tcp seg)
let send_raw t ~dst ~bytes = send_body t ~dst (Wire.Packet.Raw bytes)

let send_legacy t ~dst ~bytes = dispatch t ~dst (Wire.Packet.Raw bytes)

let send_request_flood_packet t ~dst ~bytes =
  Obs.Counters.incr t.obs Obs.Event.Request_sent;
  let shim = Wire.Cap_shim.request () in
  dispatch t ~dst ~shim (Wire.Packet.Raw bytes)

(* --- receive path ------------------------------------------------- *)

let handle_request t ~src ~renewal precaps =
  let now = Sim.now t.sim in
  match Policy.decide t.policy ~now ~src ~renewal with
  | Policy.Granted { n_kb; t_sec } ->
      let caps =
        List.map (fun precap -> Capability.cap_of_precap ~hash:t.hash ~precap ~n_kb ~t_sec) precaps
      in
      Obs.Counters.incr t.obs Obs.Event.Grant_issued;
      Wire.Addr.Tbl.replace t.pending_return src (Wire.Cap_shim.Grant { n_kb; t_sec; caps })
  | Policy.Refused ->
      (* An empty capability list is the explicit refusal of Sec. 4.2. *)
      Obs.Counters.incr t.obs Obs.Event.Request_refused;
      Wire.Addr.Tbl.replace t.pending_return src
        (Wire.Cap_shim.Grant { n_kb = 0; t_sec = 0; caps = [] })

let handle_return_info t ~src info =
  let now = Sim.now t.sim in
  let ds = dest_state t src in
  match info with
  | Wire.Cap_shim.Demotion_notice ->
      (* Our packets were demoted somewhere en route: drop the grant and
         bootstrap again (Sec. 3.8).  Start the reacquisition clock at the
         first echo of an episode. *)
      ds.grant <- None;
      if ds.lost_at = None then begin
        ds.lost_at <- Some now;
        ds.reacquire_request_at <- None
      end
  | Wire.Cap_shim.Grant { caps = []; _ } ->
      Obs.Counters.incr t.obs Obs.Event.Refusal_received;
      ds.grant <- None
  | Wire.Cap_shim.Grant { n_kb; t_sec; caps } ->
      Obs.Counters.incr t.obs Obs.Event.Grant_received;
      (match ds.lost_at with
      | Some _ ->
          (* End of a demotion episode: measure from the first re-request
             (grant piggybacked with no request in flight measures 0). *)
          let from = match ds.reacquire_request_at with Some at -> at | None -> now in
          Obs.Counters.incr t.obs Obs.Event.Reacquired;
          t.rev_reacquire_latencies <- (now -. from) :: t.rev_reacquire_latencies;
          ds.lost_at <- None;
          ds.reacquire_request_at <- None
      | None -> ());
      ds.grant <-
        Some
          {
            caps;
            nonce = fresh_nonce t;
            n_kb;
            t_sec;
            granted_at = now;
            bytes_sent = 0;
            caps_carried = false;
          };
      ds.renewal_sent_at <- None

let handle_packet t _node ~in_link:_ (p : Wire.Packet.t) =
  if Wire.Addr.equal p.Wire.Packet.dst t.addr then begin
    let now = Sim.now t.sim in
    let src = p.Wire.Packet.src in
    (match p.Wire.Packet.shim with
    | None -> Policy.note_traffic t.policy ~now ~src ~bytes:(Wire.Packet.size p) ~demoted:false
    | Some shim ->
        (if shim.Wire.Cap_shim.demoted then begin
           Obs.Counters.incr t.obs Obs.Event.Demotion_seen;
           Wire.Addr.Tbl.replace t.pending_demotion_echo src ();
           Wire.Addr.Tbl.replace t.demoted_srcs src ()
         end
         else
           match shim.Wire.Cap_shim.kind with
           | Wire.Cap_shim.Regular _ when Wire.Addr.Tbl.mem t.demoted_srcs src ->
               (* The source's traffic validates again: its demotion episode
                  at this receiver is over. *)
               Wire.Addr.Tbl.remove t.demoted_srcs src;
               Obs.Counters.incr t.obs Obs.Event.Demoted_recovered
           | _ -> ());
        (match shim.Wire.Cap_shim.kind with
        | Wire.Cap_shim.Request req ->
            handle_request t ~src ~renewal:false (Wire.Cap_shim.precaps req)
        | Wire.Cap_shim.Regular ({ renewal = true; _ } as r) when r.Wire.Cap_shim.rev_fresh_precaps <> [] ->
            handle_request t ~src ~renewal:true (Wire.Cap_shim.fresh_precaps r)
        | Wire.Cap_shim.Regular _ -> ());
        (match shim.Wire.Cap_shim.return_info with
        | Some info -> handle_return_info t ~src info
        | None -> ());
        Policy.note_traffic t.policy ~now ~src ~bytes:(Wire.Packet.size p)
          ~demoted:shim.Wire.Cap_shim.demoted);
    (match p.Wire.Packet.body with
    | Wire.Packet.Tcp seg -> t.on_segment ~src seg
    | Wire.Packet.Raw _ -> ());
    (* Auto-reply only for actual grants: a transport reply (SYN/ACK etc.)
       has already consumed the pending info in the common case, and
       refusals are kept silent so request floods gain no amplification. *)
    match (t.auto_reply, Wire.Addr.Tbl.find_opt t.pending_return src) with
    | true, Some (Wire.Cap_shim.Grant { caps = _ :: _; _ }) ->
        send_body t ~dst:src (Wire.Packet.Raw 64)
    | _, _ -> ()
  end

let create ?(params = Params.default) ?(hash = (module Crypto.Keyed_hash.Fast : Crypto.Keyed_hash.S))
    ?(auto_reply = false) ?(obs = Obs.Counters.nop) ~policy ~node ~rng () =
  let addr =
    match Net.node_addr node with
    | Some a -> a
    | None -> invalid_arg "Host.create: node has no address"
  in
  let t =
    {
      params;
      hash;
      sim = Net.node_sim node;
      node;
      addr;
      policy;
      rng;
      auto_reply;
      dests = Wire.Addr.Tbl.create 16;
      pending_return = Wire.Addr.Tbl.create 16;
      pending_demotion_echo = Wire.Addr.Tbl.create 16;
      demoted_srcs = Wire.Addr.Tbl.create 16;
      on_segment = (fun ~src:_ _ -> ());
      obs;
      rev_reacquire_latencies = [];
    }
  in
  Net.set_handler node (handle_packet t);
  t
