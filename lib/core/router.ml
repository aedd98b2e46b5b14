(* Keyed by interface (a node id, or -1): the id is its own hash.  The
   polymorphic [Hashtbl] would hash and compare the key through C calls on
   every request packet. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash i = i land max_int
end)

type t = {
  params : Params.t;
  hash : Capability.keyed;
  trust_boundary : bool;
  mutable secret : Crypto.Secret.t;
  secret_master : string;
  mutable rotations : int;
  router_id : int;
  sim : Sim.t;
  cache : Flow_cache.t;
  obs : Obs.Counters.t; (* event-coded registry; [Obs.Counters.nop] when off *)
  (* Per-packet hot-path memos: prepared hash keys (per epoch secret) and
     this router's path-id tag per incoming interface.  Both hold pure
     functions of stable inputs, so they are caches in the strict sense —
     hits and misses produce identical packets. *)
  prep : Crypto.Keyed_hash.prep_cache;
  tags : int Itbl.t;
}

let create ?(params = Params.default) ?(hash = (module Crypto.Keyed_hash.Fast : Crypto.Keyed_hash.S))
    ?(trust_boundary = true) ?(obs = Obs.Counters.nop) ~secret_master ~router_id ~sim ~link_bps () =
  let max_entries = Params.flow_cache_capacity params ~link_bps in
  {
    params;
    hash;
    trust_boundary;
    secret = Crypto.Secret.create ~master:secret_master;
    secret_master;
    rotations = 0;
    router_id;
    sim;
    cache = Flow_cache.create ~obs ~max_entries ();
    obs;
    prep = Crypto.Keyed_hash.prep_cache ();
    tags = Itbl.create 16;
  }

let cache t = t.cache

let flush_cache t = Flow_cache.clear t.cache

let rotate_secret t =
  (* Each rotation must yield a fresh secret, so derive the new master from
     a counter — rotating twice used to land on the same "<id>/rotated"
     master, silently re-validating capabilities from before the first
     rotation. *)
  t.rotations <- t.rotations + 1;
  t.secret <-
    Crypto.Secret.create ~master:(t.secret_master ^ "/rotated/" ^ string_of_int t.rotations)

(* Every demotion carries a reason event; the total under [Obs.Event.Demoted]
   always equals the sum of the reasons. *)
let demote t (shim : Wire.Cap_shim.t) ~(reason : Obs.Event.t) =
  shim.Wire.Cap_shim.demoted <- true;
  Obs.Counters.incr t.obs reason;
  Obs.Counters.incr t.obs Obs.Event.Demoted

(* [Path_id.tag] is a SipHash over a formatted string; it is a pure
   function of (router, interface), so each interface's tag is computed
   once and then served from [t.tags]. *)
let tag_of_interface t ~in_interface =
  match Itbl.find t.tags in_interface with
  | tag -> tag
  | exception Not_found ->
      let tag = Path_id.tag ~router_id:t.router_id ~interface_id:in_interface in
      Itbl.add t.tags in_interface tag;
      tag

let process_request t ~in_interface (p : Wire.Packet.t) (shim : Wire.Cap_shim.t) =
  if t.trust_boundary then Path_id.push shim (tag_of_interface t ~in_interface);
  let now = Sim.now t.sim in
  let precap =
    Capability.mint_precap ~hash:t.hash ~cache:t.prep ~secret:t.secret ~now
      ~src:p.Wire.Packet.src ~dst:p.Wire.Packet.dst
  in
  match shim.Wire.Cap_shim.kind with
  | Wire.Cap_shim.Request req ->
      if Wire.Cap_shim.precap_count req >= 255 then
        demote t shim ~reason:Obs.Event.Demoted_header_full (* header space exhausted *)
      else begin
        Wire.Cap_shim.push_precap req precap;
        Obs.Counters.incr t.obs Obs.Event.Request_minted
      end
  | Wire.Cap_shim.Regular _ -> assert false

(* The "no demotion" sentinel: [valid = true] iff reason is physically this
   value, so the hot path carries no allocated option. *)
let no_demotion = Obs.Event.Packets_in

(* Validate the capability addressed to this router (at [ptr] in [caps])
   against its secret and the packet's addresses / N / T: two hash
   computations, per the paper.  [no_demotion] if it checks out, else the
   demotion reason. *)
let validate_listed t ~now (p : Wire.Packet.t) (shim : Wire.Cap_shim.t) ~caps ~n_kb ~t_sec =
  let ptr = shim.Wire.Cap_shim.ptr in
  if ptr < 0 || ptr >= Array.length caps then Obs.Event.Demoted_no_cap
  else
    match
      Capability.validate ~hash:t.hash ~cache:t.prep ~secret:t.secret ~now
        ~src:p.Wire.Packet.src ~dst:p.Wire.Packet.dst ~n_kb ~t_sec caps.(ptr)
    with
    | Capability.Valid -> no_demotion
    | Capability.Expired -> Obs.Event.Demoted_cap_expired
    | Capability.Bad_hash -> Obs.Event.Demoted_bad_cap

let process_regular t (p : Wire.Packet.t) (shim : Wire.Cap_shim.t) ~nonce ~caps ~n_kb ~t_sec
    ~renewal =
  let now = Sim.now t.sim in
  let size = Wire.Packet.size p in
  let src = p.Wire.Packet.src and dst = p.Wire.Packet.dst in
  let nonce = Int64.to_int nonce in
  let entry = Flow_cache.find t.cache ~src ~dst in
  let reason =
    if entry != Flow_cache.absent && entry.Flow_cache.nonce = nonce then begin
      (* Fast path: nonce match.  Still subject to expiry and the byte
         limit. *)
      Obs.Counters.incr t.obs Obs.Event.Nonce_hit;
      if Capability.expired ~now ~ts:entry.Flow_cache.cap_ts ~t_sec:entry.Flow_cache.t_sec then
        Obs.Event.Demoted_cap_expired
      else begin
        match Flow_cache.charge t.cache entry ~now ~bytes:size with
        | Flow_cache.Charged -> no_demotion
        | Flow_cache.Byte_limit -> Obs.Event.Demoted_bytes_exhausted
      end
    end
    else begin
      Obs.Counters.incr t.obs Obs.Event.Nonce_miss;
      let fail = validate_listed t ~now p shim ~caps ~n_kb ~t_sec in
      if fail != no_demotion then fail
      else begin
        let cap_ts = caps.(shim.Wire.Cap_shim.ptr).Wire.Cap_shim.ts in
        if entry != Flow_cache.absent then begin
          (* Nonce mismatch: possibly the first packet of a renewed grant.
             The listed capability checked out, so replace the entry's. *)
          match
            Flow_cache.renew t.cache entry ~now ~nonce ~n_kb ~t_sec ~cap_ts ~packet_bytes:size
          with
          | Flow_cache.Charged ->
              Obs.Counters.incr t.obs Obs.Event.Regular_validated;
              Obs.Counters.incr t.obs Obs.Event.Cache_renewed;
              no_demotion
          | Flow_cache.Byte_limit -> Obs.Event.Demoted_bytes_exhausted
        end
        else begin
          match
            Flow_cache.insert t.cache ~now ~src ~dst ~nonce ~n_kb ~t_sec ~cap_ts
              ~packet_bytes:size
          with
          | Flow_cache.Inserted _ ->
              Obs.Counters.incr t.obs Obs.Event.Regular_validated;
              Obs.Counters.incr t.obs Obs.Event.Cache_inserted;
              no_demotion
          | Flow_cache.Cache_full -> Obs.Event.Demoted_cache_full
          | Flow_cache.Over_limit -> Obs.Event.Demoted_over_limit
        end
      end
    end
  in
  if reason != no_demotion then demote t shim ~reason
  else begin
    if Array.length caps > 0 then shim.Wire.Cap_shim.ptr <- shim.Wire.Cap_shim.ptr + 1;
    if renewal then begin
      Obs.Counters.incr t.obs Obs.Event.Renewal;
      let precap =
        Capability.mint_precap ~hash:t.hash ~cache:t.prep ~secret:t.secret ~now ~src ~dst
      in
      match shim.Wire.Cap_shim.kind with
      | Wire.Cap_shim.Regular r -> Wire.Cap_shim.push_fresh_precap r precap
      | Wire.Cap_shim.Request _ -> assert false
    end
  end

let process t ~in_interface (p : Wire.Packet.t) =
  Obs.Counters.incr t.obs Obs.Event.Packets_in;
  match p.Wire.Packet.shim with
  | None -> Obs.Counters.incr t.obs Obs.Event.Legacy_in
  | Some shim when shim.Wire.Cap_shim.demoted -> Obs.Counters.incr t.obs Obs.Event.Legacy_in
  | Some shim -> begin
      match shim.Wire.Cap_shim.kind with
      | Wire.Cap_shim.Request _ ->
          Obs.Counters.incr t.obs Obs.Event.Request_in;
          process_request t ~in_interface p shim
      | Wire.Cap_shim.Regular { nonce; caps; n_kb; t_sec; renewal; rev_fresh_precaps = _ } ->
          Obs.Counters.incr t.obs Obs.Event.Regular_in;
          process_regular t p shim ~nonce ~caps ~n_kb ~t_sec ~renewal
    end

let handler t node ~in_link p =
  let in_interface = match in_link with None -> -1 | Some l -> Net.node_id (Net.link_src l) in
  process t ~in_interface p;
  Net.forward node p
