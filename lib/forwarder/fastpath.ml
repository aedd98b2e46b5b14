type op =
  | Legacy_forward
  | Request
  | Regular_cached
  | Regular_uncached
  | Renewal_cached
  | Renewal_uncached

let all_ops =
  [ Legacy_forward; Request; Regular_cached; Regular_uncached; Renewal_cached; Renewal_uncached ]

let op_name = function
  | Legacy_forward -> "legacy IP forward"
  | Request -> "request"
  | Regular_cached -> "regular w/ cached entry"
  | Regular_uncached -> "regular w/o cached entry"
  | Renewal_cached -> "renewal w/ cached entry"
  | Renewal_uncached -> "renewal w/o cached entry"

type entry = {
  mutable nonce : int64;
  mutable n_bytes : int;
  mutable bytes_used : int;
  mutable ttl_expiry : float;
  mutable cap_ts : int;
}

type t = {
  precap_hash : (module Crypto.Keyed_hash.S);
  cap_hash : (module Crypto.Keyed_hash.S);
  secret : Crypto.Secret.t;
  now : float;
  src : Wire.Addr.t;
  dst : Wire.Addr.t;
  n_kb : int;
  t_sec : int;
  cap : Wire.Cap_shim.cap; (* a valid capability for (src, dst, n, t) *)
  nonce : int64;
  flows : (int, entry) Hashtbl.t; (* flow key -> state *)
  flow_key : int;
  routes : (int, int) Hashtbl.t; (* destination -> port, the legacy path *)
  mutable sink_cap : Wire.Cap_shim.cap; (* last minted pre-capability *)
  mutable sink_port : int;
}

let create ?(hash_precap = (module Crypto.Keyed_hash.Aes : Crypto.Keyed_hash.S))
    ?(hash_cap = (module Crypto.Keyed_hash.Sha : Crypto.Keyed_hash.S)) () =
  let secret = Crypto.Secret.create ~master:"forwarder-bench-secret" in
  let now = 7.0 in
  let src = Wire.Addr.of_int 0x0a000001 and dst = Wire.Addr.of_int 0xc0a80001 in
  let n_kb = 32 and t_sec = 10 in
  let precap = Tva.Capability.mint_precap2 ~precap_hash:hash_precap ~secret ~now ~src ~dst in
  let cap = Tva.Capability.cap_of_precap2 ~cap_hash:hash_cap ~precap ~n_kb ~t_sec in
  let flows = Hashtbl.create 1024 in
  let flow_key = Wire.Packet.flow_key_of ~src ~dst in
  let nonce = 0x123456789abcL in
  Hashtbl.replace flows flow_key
    { nonce; n_bytes = n_kb * 1024; bytes_used = 0; ttl_expiry = now +. 1.; cap_ts = cap.Wire.Cap_shim.ts };
  let routes = Hashtbl.create 1024 in
  for i = 0 to 255 do
    Hashtbl.replace routes (0xc0a80000 + i) (i land 7)
  done;
  {
    precap_hash = hash_precap;
    cap_hash = hash_cap;
    secret;
    now;
    src;
    dst;
    n_kb;
    t_sec;
    cap;
    nonce;
    flows;
    flow_key;
    routes;
    sink_cap = cap;
    sink_port = 0;
  }

let packet_bytes = 1060 (* 1000 B payload + TCP/IP + capability shim *)

let route t =
  match Hashtbl.find_opt t.routes (Wire.Addr.to_int t.dst) with
  | Some port -> t.sink_port <- port
  | None -> ()

let fast_path_checks t (entry : entry) =
  (* Nonce compare, byte-limit check and charge, ttl update — the entire
     cached-entry cost (no crypto). *)
  Int64.equal entry.nonce t.nonce
  && entry.bytes_used + packet_bytes <= entry.n_bytes
  && begin
       entry.bytes_used <- entry.bytes_used + packet_bytes;
       entry.ttl_expiry <-
         entry.ttl_expiry
         +. (float_of_int packet_bytes *. float_of_int t.t_sec /. float_of_int (t.n_kb * 1024));
       (* Reset so millions of benchmark iterations never trip the byte
          limit and change the measured path. *)
       entry.bytes_used <- 0;
       true
     end

let validate t =
  Tva.Capability.validate2 ~precap_hash:t.precap_hash ~cap_hash:t.cap_hash ~secret:t.secret
    ~now:t.now ~src:t.src ~dst:t.dst ~n_kb:t.n_kb ~t_sec:t.t_sec t.cap

let mint t =
  t.sink_cap <-
    Tva.Capability.mint_precap2 ~precap_hash:t.precap_hash ~secret:t.secret ~now:t.now ~src:t.src
      ~dst:t.dst

let insert_entry t =
  Hashtbl.replace t.flows (t.flow_key + 1)
    {
      nonce = t.nonce;
      n_bytes = t.n_kb * 1024;
      bytes_used = packet_bytes;
      ttl_expiry = t.now +. 1.;
      cap_ts = t.cap.Wire.Cap_shim.ts;
    };
  Hashtbl.remove t.flows (t.flow_key + 1)

let run t op =
  match op with
  | Legacy_forward -> route t
  | Request ->
      mint t;
      route t
  | Regular_cached -> begin
      match Hashtbl.find_opt t.flows t.flow_key with
      | Some entry ->
          ignore (fast_path_checks t entry);
          route t
      | None -> assert false
    end
  | Regular_uncached ->
      (* Two hash computations, then entry creation. *)
      (match validate t with Tva.Capability.Valid -> () | _ -> assert false);
      insert_entry t;
      route t
  | Renewal_cached -> begin
      match Hashtbl.find_opt t.flows t.flow_key with
      | Some entry ->
          ignore (fast_path_checks t entry);
          mint t;
          route t
      | None -> assert false
    end
  | Renewal_uncached ->
      (match validate t with Tva.Capability.Valid -> () | _ -> assert false);
      insert_entry t;
      mint t;
      route t

let runner t op () = run t op

let calibrate ?(iters = 20000) t op =
  (* One warmup pass, then a timed loop. *)
  for _ = 1 to min 1000 iters do
    run t op
  done;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    run t op
  done;
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) *. 1e9 /. float_of_int iters
