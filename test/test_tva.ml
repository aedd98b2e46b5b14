(* The TVA core: capability crypto, the bounded flow cache and its 2N
   byte-bound property, path identifiers, router packet processing (Fig. 6),
   destination policies, and the host protocol end to end. *)

let fast = (module Crypto.Keyed_hash.Fast : Crypto.Keyed_hash.S)

(* [Capability]'s mint and validate against a fresh per-call key cache. *)
let mint_precap ~hash ~secret ~now ~src ~dst =
  Tva.Capability.mint_precap ~hash ~cache:(Crypto.Keyed_hash.prep_cache ()) ~secret ~now ~src ~dst

let validate ~hash ~secret ~now ~src ~dst ~n_kb ~t_sec cap =
  Tva.Capability.validate ~hash ~cache:(Crypto.Keyed_hash.prep_cache ()) ~secret ~now ~src ~dst
    ~n_kb ~t_sec cap

let src = Wire.Addr.of_int 0x0a000001
let dst = Wire.Addr.of_int 0xc0a80001

(* --- Capability construction and validation -------------------------- *)

let mint_and_validate () =
  let secret = Crypto.Secret.create ~master:"r1" in
  let precap = mint_precap ~hash:fast ~secret ~now:5. ~src ~dst in
  let cap = Tva.Capability.cap_of_precap ~hash:fast ~precap ~n_kb:32 ~t_sec:10 in
  Alcotest.(check string) "valid" "valid"
    (Format.asprintf "%a" Tva.Capability.pp_verdict
       (validate ~hash:fast ~secret ~now:6. ~src ~dst ~n_kb:32 ~t_sec:10 cap))

let validation_is_bound_to_addresses () =
  let secret = Crypto.Secret.create ~master:"r1" in
  let precap = mint_precap ~hash:fast ~secret ~now:5. ~src ~dst in
  let cap = Tva.Capability.cap_of_precap ~hash:fast ~precap ~n_kb:32 ~t_sec:10 in
  let thief = Wire.Addr.of_int 0x0b000001 in
  Alcotest.(check bool) "stolen by another source" true
    (validate ~hash:fast ~secret ~now:6. ~src:thief ~dst ~n_kb:32 ~t_sec:10 cap
    = Tva.Capability.Bad_hash);
  Alcotest.(check bool) "redirected to another destination" true
    (validate ~hash:fast ~secret ~now:6. ~src ~dst:thief ~n_kb:32 ~t_sec:10 cap
    = Tva.Capability.Bad_hash)

let validation_is_bound_to_n_and_t () =
  let secret = Crypto.Secret.create ~master:"r1" in
  let precap = mint_precap ~hash:fast ~secret ~now:5. ~src ~dst in
  let cap = Tva.Capability.cap_of_precap ~hash:fast ~precap ~n_kb:32 ~t_sec:10 in
  (* Inflating N or T breaks the second hash: fine-grained limits cannot be
     tampered with. *)
  Alcotest.(check bool) "bigger N rejected" true
    (validate ~hash:fast ~secret ~now:6. ~src ~dst ~n_kb:1000 ~t_sec:10 cap
    = Tva.Capability.Bad_hash);
  Alcotest.(check bool) "longer T rejected" true
    (validate ~hash:fast ~secret ~now:6. ~src ~dst ~n_kb:32 ~t_sec:63 cap
    = Tva.Capability.Bad_hash)

let validation_is_bound_to_router_secret () =
  let secret = Crypto.Secret.create ~master:"r1" in
  let other = Crypto.Secret.create ~master:"r2" in
  let precap = mint_precap ~hash:fast ~secret ~now:5. ~src ~dst in
  let cap = Tva.Capability.cap_of_precap ~hash:fast ~precap ~n_kb:32 ~t_sec:10 in
  Alcotest.(check bool) "another router's secret" true
    (validate ~hash:fast ~secret:other ~now:6. ~src ~dst ~n_kb:32 ~t_sec:10 cap
    = Tva.Capability.Bad_hash)

let capability_expires_after_t () =
  let secret = Crypto.Secret.create ~master:"r1" in
  let precap = mint_precap ~hash:fast ~secret ~now:5. ~src ~dst in
  let cap = Tva.Capability.cap_of_precap ~hash:fast ~precap ~n_kb:32 ~t_sec:10 in
  Alcotest.(check bool) "alive at T" true
    (validate ~hash:fast ~secret ~now:15. ~src ~dst ~n_kb:32 ~t_sec:10 cap
    = Tva.Capability.Valid);
  Alcotest.(check bool) "dead after T" true
    (validate ~hash:fast ~secret ~now:16. ~src ~dst ~n_kb:32 ~t_sec:10 cap
    = Tva.Capability.Expired)

let capability_survives_secret_rotation_within_t () =
  let secret = Crypto.Secret.create ~master:"r1" in
  (* Minted just before the 128 s rotation, checked just after: the high
     bit of the timestamp directs the router to the previous secret. *)
  let precap = mint_precap ~hash:fast ~secret ~now:126. ~src ~dst in
  let cap = Tva.Capability.cap_of_precap ~hash:fast ~precap ~n_kb:32 ~t_sec:10 in
  Alcotest.(check bool) "valid across rotation" true
    (validate ~hash:fast ~secret ~now:130. ~src ~dst ~n_kb:32 ~t_sec:10 cap
    = Tva.Capability.Valid)

let forged_capabilities_rejected =
  QCheck.Test.make ~name:"capability: random 64-bit values never validate" ~count:300
    QCheck.(pair (int_range 0 255) int64)
    (fun (ts, h) ->
      let secret = Crypto.Secret.create ~master:"r1" in
      let cap = { Wire.Cap_shim.ts; hash = Int64.logand h 0xFFFFFFFFFFFFFFL } in
      validate ~hash:fast ~secret ~now:(float_of_int ts +. 0.5) ~src ~dst ~n_kb:32 ~t_sec:10 cap
      <> Tva.Capability.Valid)

let two_hash_pairing_matches () =
  (* A Prototype capability (AES-hash pre-capability, HMAC-SHA1
     capability) validates under Prototype, and under neither hash
     alone. *)
  let open Crypto.Keyed_hash in
  let secret = Crypto.Secret.create ~master:"proto" in
  let precap = mint_precap ~hash:(module Prototype) ~secret ~now:3. ~src ~dst in
  let cap = Tva.Capability.cap_of_precap ~hash:(module Prototype) ~precap ~n_kb:8 ~t_sec:5 in
  let check name hash expect =
    Alcotest.(check string) name expect
      (Format.asprintf "%a" Tva.Capability.pp_verdict
         (validate ~hash ~secret ~now:4. ~src ~dst ~n_kb:8 ~t_sec:5 cap))
  in
  check "prototype validates" (module Prototype) "valid";
  check "aes alone rejects" (module Aes) "bad-hash";
  check "sha alone rejects" (module Sha) "bad-hash"

(* --- Path identifiers -------------------------------------------------- *)

let path_id_deterministic () =
  Alcotest.(check int) "stable" (Tva.Path_id.tag ~router_id:1 ~interface_id:2)
    (Tva.Path_id.tag ~router_id:1 ~interface_id:2)

let path_id_16_bits () =
  for r = 0 to 20 do
    for i = 0 to 20 do
      let tag = Tva.Path_id.tag ~router_id:r ~interface_id:i in
      if tag < 0 || tag > 0xffff then Alcotest.failf "tag %d out of range" tag
    done
  done

let path_id_most_recent () =
  let shim = Wire.Cap_shim.request () in
  Alcotest.(check int) "untagged" 0 (Tva.Path_id.most_recent shim);
  Tva.Path_id.push shim 100;
  Tva.Path_id.push shim 200;
  Alcotest.(check int) "latest tag wins" 200 (Tva.Path_id.most_recent shim)

let path_id_ignores_regular () =
  let shim = Wire.Cap_shim.regular ~nonce:1L ~caps:[] ~n_kb:1 ~t_sec:1 ~renewal:false () in
  Tva.Path_id.push shim 7;
  Alcotest.(check int) "no-op on regular" 0 (Tva.Path_id.most_recent shim)

(* --- Flow cache (Sec. 3.6) ---------------------------------------------- *)

let cache_charges_and_limits () =
  let cache = Tva.Flow_cache.create ~max_entries:16 () in
  match
    Tva.Flow_cache.insert cache ~now:0. ~src ~dst ~nonce:1 ~n_kb:4 ~t_sec:10
      ~cap_ts:0 ~packet_bytes:1000
  with
  | Tva.Flow_cache.Inserted entry ->
      Alcotest.(check int) "first packet charged" 1000 entry.Tva.Flow_cache.bytes_used;
      Alcotest.(check bool) "more fits" true
        (Tva.Flow_cache.charge cache entry ~now:0.1 ~bytes:3000 = Tva.Flow_cache.Charged);
      (* 4 KB = 4096 B budget; 1000+3000+97 just exceeds it. *)
      Alcotest.(check bool) "over budget rejected" true
        (Tva.Flow_cache.charge cache entry ~now:0.2 ~bytes:97 = Tva.Flow_cache.Byte_limit);
      Alcotest.(check bool) "96 still fits exactly" true
        (Tva.Flow_cache.charge cache entry ~now:0.2 ~bytes:96 = Tva.Flow_cache.Charged)
  | _ -> Alcotest.fail "insert failed"

let cache_over_limit_first_packet () =
  let cache = Tva.Flow_cache.create ~max_entries:4 () in
  Alcotest.(check bool) "oversized first packet" true
    (Tva.Flow_cache.insert cache ~now:0. ~src ~dst ~nonce:1 ~n_kb:1 ~t_sec:10 ~cap_ts:0
       ~packet_bytes:2000
    = Tva.Flow_cache.Over_limit)

let cache_ttl_reclaim () =
  let cache = Tva.Flow_cache.create ~max_entries:4 () in
  (match
     Tva.Flow_cache.insert cache ~now:0. ~src ~dst ~nonce:1 ~n_kb:10 ~t_sec:10 ~cap_ts:0
       ~packet_bytes:1024
   with
  | Tva.Flow_cache.Inserted entry ->
      (* ttl = L*T/N = 1024*10/10240 = 1 s. *)
      Alcotest.(check (float 1e-9)) "initial ttl" 1. (Tva.Flow_cache.ttl_remaining cache entry ~now:0.);
      Alcotest.(check bool) "not reclaimable yet" true (Tva.Flow_cache.sweep cache ~now:0.5 = 0);
      Alcotest.(check int) "reclaimed when expired" 1 (Tva.Flow_cache.sweep cache ~now:1.5)
  | _ -> Alcotest.fail "insert failed");
  Alcotest.(check int) "cache empty" 0 (Tva.Flow_cache.size cache)

let cache_bounded_size () =
  let cache = Tva.Flow_cache.create ~max_entries:2 () in
  let insert i =
    Tva.Flow_cache.insert cache ~now:0. ~src:(Wire.Addr.of_int i) ~dst ~nonce:1 ~n_kb:10
      ~t_sec:10 ~cap_ts:0 ~packet_bytes:5120
  in
  (match insert 1 with Tva.Flow_cache.Inserted _ -> () | _ -> Alcotest.fail "1");
  (match insert 2 with Tva.Flow_cache.Inserted _ -> () | _ -> Alcotest.fail "2");
  (* Full, nothing reclaimable (5 s ttls): attackers cannot make a third
     entry. *)
  (match insert 3 with
  | Tva.Flow_cache.Cache_full -> ()
  | _ -> Alcotest.fail "expected Cache_full");
  Alcotest.(check int) "still two" 2 (Tva.Flow_cache.size cache)

let cache_full_reclaims_expired () =
  let cache = Tva.Flow_cache.create ~max_entries:1 () in
  (match
     Tva.Flow_cache.insert cache ~now:0. ~src ~dst ~nonce:1 ~n_kb:10 ~t_sec:10 ~cap_ts:0
       ~packet_bytes:1024
   with
  | Tva.Flow_cache.Inserted _ -> ()
  | _ -> Alcotest.fail "insert");
  (* At t=2 the 1 s ttl has lapsed: insertion of a new flow evicts it. *)
  match
    Tva.Flow_cache.insert cache ~now:2. ~src:(Wire.Addr.of_int 9) ~dst ~nonce:2 ~n_kb:10
      ~t_sec:10 ~cap_ts:2 ~packet_bytes:1024
  with
  | Tva.Flow_cache.Inserted _ -> ()
  | _ -> Alcotest.fail "expected reclaim + insert"

let cache_lookup_and_remove () =
  let cache = Tva.Flow_cache.create ~max_entries:4 () in
  (match
     Tva.Flow_cache.insert cache ~now:0. ~src ~dst ~nonce:7 ~n_kb:10 ~t_sec:10 ~cap_ts:0
       ~packet_bytes:100
   with
  | Tva.Flow_cache.Inserted entry ->
      Alcotest.(check bool) "lookup hits" true (Tva.Flow_cache.find cache ~src ~dst == entry);
      Alcotest.(check bool) "reverse direction is a different flow" true
        (Tva.Flow_cache.find cache ~src:dst ~dst:src == Tva.Flow_cache.absent);
      Tva.Flow_cache.remove cache entry;
      Alcotest.(check bool) "gone" true
        (Tva.Flow_cache.find cache ~src ~dst == Tva.Flow_cache.absent)
  | _ -> Alcotest.fail "insert failed")

(* [find]'s miss result is one shared sentinel record.  A caller that
   skips the [== absent] test must get an exception from every record
   operation, and the sentinel must come out unchanged. *)
let cache_miss_sentinel () =
  let cache = Tva.Flow_cache.create ~max_entries:4 () in
  let a = Tva.Flow_cache.find cache ~src ~dst in
  Alcotest.(check bool) "miss is absent" true (a == Tva.Flow_cache.absent);
  let fields (e : Tva.Flow_cache.entry) =
    [ e.nonce; e.n_bytes; e.t_sec; e.cap_ts; e.bytes_used; e.slot ]
  in
  let before = fields a in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s on absent did not raise" name
    | exception Invalid_argument _ -> ()
  in
  raises "charge" (fun () -> ignore (Tva.Flow_cache.charge cache a ~now:0. ~bytes:0));
  raises "renew" (fun () ->
      ignore
        (Tva.Flow_cache.renew cache a ~now:0. ~nonce:5 ~n_kb:10 ~t_sec:10 ~cap_ts:3
           ~packet_bytes:100));
  raises "ttl_remaining" (fun () -> ignore (Tva.Flow_cache.ttl_remaining cache a ~now:0.));
  Alcotest.(check (list int)) "sentinel untouched" before (fields a);
  Alcotest.(check int) "nothing cached" 0 (Tva.Flow_cache.size cache)

(* A full cache under churn must not rehash its whole table on every
   insert.  The growth rule used to let [live] sit at exactly half the
   table, so each tomb an eviction or [remove] left forced a same-size
   rehash of every slot: about 8 KB per insert at capacity 64 and 0.5 MB
   at 4096.  The bound is per insert, amortized over the run. *)
let cache_churn_allocation () =
  let budget = 2048. and inserts = 2000 in
  let insert cache i ~now ~packet_bytes =
    match
      Tva.Flow_cache.insert cache ~now ~src:(Wire.Addr.of_int i) ~dst ~nonce:1 ~n_kb:1 ~t_sec:10
        ~cap_ts:0 ~packet_bytes
    with
    | Tva.Flow_cache.Inserted e -> e
    | Tva.Flow_cache.Cache_full | Tva.Flow_cache.Over_limit -> Alcotest.fail "insert refused"
  in
  let per_insert name f =
    let before = Gc.allocated_bytes () in
    for k = 1 to inserts do
      f k
    done;
    let bytes = (Gc.allocated_bytes () -. before) /. float_of_int inserts in
    if bytes > budget then
      Alcotest.failf "%s: %.0f bytes allocated per insert (budget %g)" name bytes budget
  in
  (* Eviction churn: every record has expired by the next insert's [now],
     so each insert into the full cache reclaims one record first. *)
  List.iter
    (fun max_entries ->
      let cache = Tva.Flow_cache.create ~max_entries () in
      for i = 0 to max_entries - 1 do
        ignore (insert cache i ~now:0. ~packet_bytes:1)
      done;
      per_insert (Printf.sprintf "eviction churn at %d" max_entries) (fun k ->
          ignore (insert cache (max_entries + k) ~now:(float_of_int k) ~packet_bytes:1));
      Alcotest.(check int) "still full" max_entries (Tva.Flow_cache.size cache))
    [ 64; 4096 ];
  (* Remove/re-insert churn with 4096 live records and room to spare. *)
  let live = 4096 in
  let cache = Tva.Flow_cache.create ~max_entries:(16 * live) () in
  let entries = Array.init live (fun i -> insert cache i ~now:0. ~packet_bytes:100) in
  per_insert "remove/re-insert churn" (fun k ->
      let i = k mod live in
      Tva.Flow_cache.remove cache entries.(i);
      entries.(i) <- insert cache i ~now:0. ~packet_bytes:100);
  Alcotest.(check int) "all live" live (Tva.Flow_cache.size cache)

let cache_renew_resets_budget () =
  let cache = Tva.Flow_cache.create ~max_entries:4 () in
  match
    Tva.Flow_cache.insert cache ~now:0. ~src ~dst ~nonce:1 ~n_kb:4 ~t_sec:10 ~cap_ts:0
      ~packet_bytes:4000
  with
  | Tva.Flow_cache.Inserted entry ->
      Alcotest.(check bool) "old budget nearly spent" true
        (Tva.Flow_cache.charge cache entry ~now:0.1 ~bytes:1000 = Tva.Flow_cache.Byte_limit);
      Alcotest.(check bool) "renewal accepted" true
        (Tva.Flow_cache.renew cache entry ~now:0.2 ~nonce:2 ~n_kb:4 ~t_sec:10 ~cap_ts:0
           ~packet_bytes:1000
        = Tva.Flow_cache.Charged);
      Alcotest.(check int) "new nonce" 2 entry.Tva.Flow_cache.nonce;
      Alcotest.(check int) "budget restarted" 1000 entry.Tva.Flow_cache.bytes_used
  | _ -> Alcotest.fail "insert failed"

(* The paper's Sec. 3.6 theorem: no matter when the router reclaims state,
   a single capability can never move more than 2N bytes.  The adversary
   here controls packet sizes, packet timing and eviction timing. *)
let two_n_byte_bound =
  QCheck.Test.make ~name:"flow cache: adversarial schedule never exceeds 2N bytes" ~count:300
    QCheck.(
      triple (int_range 1 20) (* N in KB *)
        (list_of_size Gen.(int_range 1 80) (pair (int_range 1 1500) (float_range 0. 1.)))
        (list_of_size Gen.(int_range 0 40) (float_range 0. 1.)))
    (fun (n_kb, sends, evictions) ->
      let t_sec = 10 in
      let horizon = float_of_int t_sec in
      let cache = Tva.Flow_cache.create ~max_entries:4 () in
      (* Sort both schedules into one adversarial timeline over [0, T). *)
      let events =
        List.sort (fun (a, _) (b, _) -> compare a b)
          (List.map (fun (size, frac) -> (frac *. horizon, `Send size)) sends
          @ List.map (fun frac -> (frac *. horizon, `Evict)) evictions)
      in
      let accepted = ref 0 in
      List.iter
        (fun (now, ev) ->
          match ev with
          | `Send size -> begin
              let entry = Tva.Flow_cache.find cache ~src ~dst in
              if entry != Tva.Flow_cache.absent then begin
                match Tva.Flow_cache.charge cache entry ~now ~bytes:size with
                | Tva.Flow_cache.Charged -> accepted := !accepted + size
                | Tva.Flow_cache.Byte_limit -> ()
              end
              else begin
                match
                  Tva.Flow_cache.insert cache ~now ~src ~dst ~nonce:1 ~n_kb ~t_sec ~cap_ts:0
                    ~packet_bytes:size
                with
                | Tva.Flow_cache.Inserted _ -> accepted := !accepted + size
                | Tva.Flow_cache.Cache_full | Tva.Flow_cache.Over_limit -> ()
              end
            end
          | `Evict ->
              (* The router may reclaim any record whose ttl has lapsed —
                 and only those. *)
              ignore (Tva.Flow_cache.sweep cache ~now))
        events;
      !accepted <= 2 * n_kb * 1024)

let no_eviction_means_exactly_n =
  QCheck.Test.make ~name:"flow cache: without memory pressure the limit is exactly N" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 60) (int_range 1 1500))
    (fun sizes ->
      let n_kb = 4 in
      let cache = Tva.Flow_cache.create ~max_entries:4 () in
      let accepted = ref 0 in
      let now = ref 0.0 in
      List.iter
        (fun size ->
          now := !now +. 0.001;
          let entry = Tva.Flow_cache.find cache ~src ~dst in
          if entry != Tva.Flow_cache.absent then begin
            match Tva.Flow_cache.charge cache entry ~now:!now ~bytes:size with
            | Tva.Flow_cache.Charged -> accepted := !accepted + size
            | Tva.Flow_cache.Byte_limit -> ()
          end
          else begin
            match
              Tva.Flow_cache.insert cache ~now:!now ~src ~dst ~nonce:1 ~n_kb ~t_sec:10 ~cap_ts:0
                ~packet_bytes:size
            with
            | Tva.Flow_cache.Inserted _ -> accepted := !accepted + size
            | Tva.Flow_cache.Cache_full | Tva.Flow_cache.Over_limit -> ()
          end)
        sizes;
      !accepted <= n_kb * 1024)

(* --- Router processing (Fig. 6) ----------------------------------------- *)

let make_router ?(trust_boundary = true) ?(secret = "router-secret") ?obs sim =
  Tva.Router.create ~trust_boundary ?obs ~secret_master:secret ~router_id:1 ~sim ~link_bps:10e6
    ()

(* A router with its own counters, and a reader of them. *)
let counted_router sim =
  let obs = Obs.Counters.create ~name:"router" () in
  (make_router ~obs sim, Obs.Counters.get obs)

let advance sim t =
  Sim.schedule_at sim ~time:t (fun () -> ());
  Sim.run sim

let request_packet () =
  Wire.Packet.make ~shim:(Wire.Cap_shim.request ()) ~src ~dst (Wire.Packet.Raw 250)

let router_stamps_requests () =
  let sim = Sim.create () in
  let router = make_router sim in
  let p = request_packet () in
  Tva.Router.process router ~in_interface:3 p;
  match p.Wire.Packet.shim with
  | Some { Wire.Cap_shim.kind = Wire.Cap_shim.Request req; _ } ->
      let path_ids = Wire.Cap_shim.path_ids req in
      Alcotest.(check int) "one tag" 1 (List.length path_ids);
      Alcotest.(check int) "one precap" 1 (Wire.Cap_shim.precap_count req);
      Alcotest.(check int) "tag is interface-determined"
        (Tva.Path_id.tag ~router_id:1 ~interface_id:3)
        (List.hd path_ids)
  | _ -> Alcotest.fail "not a request anymore"

let non_boundary_router_does_not_tag () =
  let sim = Sim.create () in
  let router = make_router ~trust_boundary:false sim in
  let p = request_packet () in
  Tva.Router.process router ~in_interface:3 p;
  match p.Wire.Packet.shim with
  | Some { Wire.Cap_shim.kind = Wire.Cap_shim.Request req; _ } ->
      Alcotest.(check int) "no tag" 0 (List.length (Wire.Cap_shim.path_ids req));
      Alcotest.(check int) "still a precap" 1 (Wire.Cap_shim.precap_count req)
  | _ -> Alcotest.fail "not a request anymore"

(* Drive a full grant through one router: request -> precap -> destination
   conversion -> regular packet. *)
let granted_regular sim router ~n_kb ~t_sec ~nonce =
  let req = request_packet () in
  Tva.Router.process router ~in_interface:0 req;
  let precap =
    match req.Wire.Packet.shim with
    | Some { Wire.Cap_shim.kind = Wire.Cap_shim.Request { rev_precaps = [ pc ]; _ }; _ } -> pc
    | _ -> Alcotest.fail "no precap"
  in
  ignore sim;
  let cap = Tva.Capability.cap_of_precap ~hash:fast ~precap ~n_kb ~t_sec in
  fun ?(renewal = false) ?(with_caps = true) ~bytes () ->
    let shim =
      Wire.Cap_shim.regular ~nonce ~caps:(if with_caps then [ cap ] else []) ~n_kb ~t_sec ~renewal
        ()
    in
    Wire.Packet.make ~shim ~src ~dst (Wire.Packet.Raw bytes)

let router_validates_and_caches () =
  let sim = Sim.create () in
  let router, count = counted_router sim in
  let mk = granted_regular sim router ~n_kb:32 ~t_sec:10 ~nonce:42L in
  let p1 = mk ~bytes:1000 () in
  Tva.Router.process router ~in_interface:0 p1;
  Alcotest.(check bool) "not demoted" false
    (match p1.Wire.Packet.shim with Some s -> s.Wire.Cap_shim.demoted | None -> true);
  Alcotest.(check int) "ptr advanced" 1
    (match p1.Wire.Packet.shim with Some s -> s.Wire.Cap_shim.ptr | None -> -1);
  Alcotest.(check int) "validated via hashes" 1 (count Obs.Event.Regular_validated);
  (* Nonce-only packet hits the cache. *)
  let p2 = mk ~with_caps:false ~bytes:1000 () in
  Tva.Router.process router ~in_interface:0 p2;
  Alcotest.(check bool) "cached accept" false
    (match p2.Wire.Packet.shim with Some s -> s.Wire.Cap_shim.demoted | None -> true);
  Alcotest.(check int) "cache hit counted" 1 (count Obs.Event.Nonce_hit);
  Alcotest.(check int) "nothing demoted" 0 (count Obs.Event.Demoted)

let router_demotes_forgeries () =
  let sim = Sim.create () in
  let router, count = counted_router sim in
  let shim =
    Wire.Cap_shim.regular ~nonce:1L
      ~caps:[ { Wire.Cap_shim.ts = 0; hash = 0x1234L } ]
      ~n_kb:32 ~t_sec:10 ~renewal:false ()
  in
  let p = Wire.Packet.make ~shim ~src ~dst (Wire.Packet.Raw 1000) in
  Tva.Router.process router ~in_interface:0 p;
  Alcotest.(check bool) "demoted" true shim.Wire.Cap_shim.demoted;
  Alcotest.(check int) "counted" 1 (count Obs.Event.Demoted)

let router_demotes_unknown_nonce () =
  let sim = Sim.create () in
  let router = make_router sim in
  let shim = Wire.Cap_shim.regular ~nonce:99L ~caps:[] ~n_kb:32 ~t_sec:10 ~renewal:false () in
  let p = Wire.Packet.make ~shim ~src ~dst (Wire.Packet.Raw 1000) in
  Tva.Router.process router ~in_interface:0 p;
  Alcotest.(check bool) "demoted (no entry, no caps)" true shim.Wire.Cap_shim.demoted

let router_enforces_byte_limit () =
  let sim = Sim.create () in
  let router = make_router sim in
  (* 1 KB budget. *)
  let mk = granted_regular sim router ~n_kb:1 ~t_sec:10 ~nonce:7L in
  let p1 = mk ~bytes:800 () in
  Tva.Router.process router ~in_interface:0 p1;
  Alcotest.(check bool) "within budget" false
    (match p1.Wire.Packet.shim with Some s -> s.Wire.Cap_shim.demoted | None -> true);
  let p2 = mk ~with_caps:false ~bytes:800 () in
  Tva.Router.process router ~in_interface:0 p2;
  Alcotest.(check bool) "over budget demoted" true
    (match p2.Wire.Packet.shim with Some s -> s.Wire.Cap_shim.demoted | None -> false)

let router_enforces_expiry () =
  let sim = Sim.create () in
  let router = make_router sim in
  let mk = granted_regular sim router ~n_kb:32 ~t_sec:5 ~nonce:8L in
  let p1 = mk ~bytes:100 () in
  Tva.Router.process router ~in_interface:0 p1;
  Alcotest.(check bool) "fresh ok" false
    (match p1.Wire.Packet.shim with Some s -> s.Wire.Cap_shim.demoted | None -> true);
  advance sim 6.;
  let p2 = mk ~with_caps:false ~bytes:100 () in
  Tva.Router.process router ~in_interface:0 p2;
  Alcotest.(check bool) "expired demoted" true
    (match p2.Wire.Packet.shim with Some s -> s.Wire.Cap_shim.demoted | None -> false)

let router_renewal_mints_fresh_precap () =
  let sim = Sim.create () in
  let router = make_router sim in
  let mk = granted_regular sim router ~n_kb:32 ~t_sec:10 ~nonce:9L in
  let p1 = mk ~bytes:100 () in
  Tva.Router.process router ~in_interface:0 p1;
  let p2 = mk ~renewal:true ~with_caps:true ~bytes:100 () in
  Tva.Router.process router ~in_interface:0 p2;
  match p2.Wire.Packet.shim with
  | Some { Wire.Cap_shim.kind = Wire.Cap_shim.Regular { rev_fresh_precaps = [ pc ]; _ }; demoted; _ } ->
      Alcotest.(check bool) "not demoted" false demoted;
      (* The fresh pre-capability converts into a capability that validates
         against the same router. *)
      let cap = Tva.Capability.cap_of_precap ~hash:fast ~precap:pc ~n_kb:16 ~t_sec:8 in
      let shim = Wire.Cap_shim.regular ~nonce:10L ~caps:[ cap ] ~n_kb:16 ~t_sec:8 ~renewal:false () in
      let p3 = Wire.Packet.make ~shim ~src ~dst (Wire.Packet.Raw 100) in
      Tva.Router.process router ~in_interface:0 p3;
      Alcotest.(check bool) "renewed capability works" false shim.Wire.Cap_shim.demoted
  | _ -> Alcotest.fail "no fresh precap"

let router_cache_flush_demotes_nonce_only () =
  let sim = Sim.create () in
  let router = make_router sim in
  let mk = granted_regular sim router ~n_kb:32 ~t_sec:10 ~nonce:11L in
  Tva.Router.process router ~in_interface:0 (mk ~bytes:100 ());
  (* Route change / restart: cache gone (Sec. 3.8). *)
  Tva.Router.flush_cache router;
  let p = mk ~with_caps:false ~bytes:100 () in
  Tva.Router.process router ~in_interface:0 p;
  Alcotest.(check bool) "demoted after flush" true
    (match p.Wire.Packet.shim with Some s -> s.Wire.Cap_shim.demoted | None -> false);
  (* But a packet carrying the full capability list recovers. *)
  let p2 = mk ~bytes:100 () in
  Tva.Router.process router ~in_interface:0 p2;
  Alcotest.(check bool) "caps list re-establishes state" false
    (match p2.Wire.Packet.shim with Some s -> s.Wire.Cap_shim.demoted | None -> true)

let router_secret_rotation_invalidates () =
  let sim = Sim.create () in
  let router = make_router sim in
  let mk = granted_regular sim router ~n_kb:32 ~t_sec:10 ~nonce:12L in
  Tva.Router.flush_cache router;
  Tva.Router.rotate_secret router;
  let p = mk ~bytes:100 () in
  Tva.Router.process router ~in_interface:0 p;
  Alcotest.(check bool) "old capability dead after restart" true
    (match p.Wire.Packet.shim with Some s -> s.Wire.Cap_shim.demoted | None -> false)

(* Each rotation must yield a fresh secret.  An earlier implementation
   derived the rotated master as [id ^ "/rotated"], so a second rotation was
   a no-op and capabilities minted after the first rotation survived it. *)
let router_two_rotations_distinct () =
  let sim = Sim.create () in
  let router = make_router sim in
  Tva.Router.rotate_secret router;
  (* Mint under the once-rotated secret; it must validate... *)
  let mk = granted_regular sim router ~n_kb:32 ~t_sec:10 ~nonce:13L in
  let p1 = mk ~bytes:100 () in
  Tva.Router.process router ~in_interface:0 p1;
  Alcotest.(check bool) "valid under first rotated secret" false
    (match p1.Wire.Packet.shim with Some s -> s.Wire.Cap_shim.demoted | None -> true);
  (* ...and die under the twice-rotated one. *)
  Tva.Router.rotate_secret router;
  Tva.Router.flush_cache router;
  let p2 = mk ~bytes:100 () in
  Tva.Router.process router ~in_interface:0 p2;
  Alcotest.(check bool) "second rotation yields a distinct secret" true
    (match p2.Wire.Packet.shim with Some s -> s.Wire.Cap_shim.demoted | None -> false)

(* Regression guards for the allocation-free router paths: Table 1's
   driver on the simulator's SipHash ([Forwarder.Fastpath.measure], the
   harness behind `tva_sim table1`) sends eight passes over 1024 flows of
   one packet type, checking that every packet stayed on its branch and
   none was demoted, and each path must stay within its minor-words
   budget.  The budgets are the measured words plus one, less than the
   smallest heap block, so any new allocation on a path fails them:
   cached 0; validate 6 (the two boxed hash results); request 12 (the
   pre-capability, its boxed hash and two list cells).  Built with the
   dev profile's -opaque, validate and request read 24 and 21. *)
let router_path_words op ~budget () =
  let fp = Forwarder.Fastpath.create ~hash:(module Crypto.Keyed_hash.Fast) () in
  let m = List.assoc op (Forwarder.Fastpath.measure fp ~passes:8 [ op ]) in
  let words = m.Forwarder.Fastpath.minor_words_per_packet in
  if words > budget then
    Alcotest.failf "%s allocates %.2f minor words/packet (budget %g)"
      (Forwarder.Fastpath.op_name op) words budget

let router_cached_path_allocation_budget =
  router_path_words Forwarder.Fastpath.Regular_cached ~budget:1.

(* Every packet takes the validate branch: two nonce sets alternate
   against each flow's record. *)
let router_validate_path_allocation_budget =
  router_path_words Forwarder.Fastpath.Regular_uncached ~budget:7.

let router_request_path_allocation_budget = router_path_words Forwarder.Fastpath.Request ~budget:13.

let router_passes_legacy () =
  let sim = Sim.create () in
  let router, count = counted_router sim in
  let p = Wire.Packet.make ~src ~dst (Wire.Packet.Raw 1000) in
  Tva.Router.process router ~in_interface:0 p;
  Alcotest.(check int) "legacy counted" 1 (count Obs.Event.Legacy_in);
  Alcotest.(check bool) "no shim added" true (p.Wire.Packet.shim = None)

let router_skips_demoted () =
  let sim = Sim.create () in
  let router, count = counted_router sim in
  let shim = Wire.Cap_shim.regular ~nonce:1L ~caps:[] ~n_kb:1 ~t_sec:1 ~renewal:false () in
  shim.Wire.Cap_shim.demoted <- true;
  let p = Wire.Packet.make ~shim ~src ~dst (Wire.Packet.Raw 100) in
  Tva.Router.process router ~in_interface:0 p;
  Alcotest.(check int) "treated as legacy" 1 (count Obs.Event.Legacy_in)

(* --- Policies ------------------------------------------------------------ *)

let policy_allow_all () =
  let p = Tva.Policy.allow_all ~n_kb:7 ~t_sec:3 () in
  match Tva.Policy.decide p ~now:0. ~src ~renewal:false with
  | Tva.Policy.Granted { n_kb; t_sec } ->
      Alcotest.(check int) "n" 7 n_kb;
      Alcotest.(check int) "t" 3 t_sec
  | Tva.Policy.Refused -> Alcotest.fail "refused"

let policy_refuse_all () =
  let p = Tva.Policy.refuse_all () in
  Alcotest.(check bool) "refused" true
    (Tva.Policy.decide p ~now:0. ~src ~renewal:false = Tva.Policy.Refused)

let policy_client_requires_contact () =
  let p = Tva.Policy.client ~window:10. () in
  Alcotest.(check bool) "stranger refused" true
    (Tva.Policy.decide p ~now:0. ~src ~renewal:false = Tva.Policy.Refused);
  Tva.Policy.note_outgoing_request p ~now:1. ~dst:src;
  Alcotest.(check bool) "contacted peer granted" true
    (match Tva.Policy.decide p ~now:2. ~src ~renewal:false with
    | Tva.Policy.Granted _ -> true
    | Tva.Policy.Refused -> false);
  Alcotest.(check bool) "window lapses" true
    (Tva.Policy.decide p ~now:20. ~src ~renewal:false = Tva.Policy.Refused)

let policy_server_grants_once_to_suspicious () =
  let p = Tva.Policy.server ~suspicious:(fun a -> Wire.Addr.equal a src) () in
  Alcotest.(check bool) "first grant" true
    (match Tva.Policy.decide p ~now:0. ~src ~renewal:false with
    | Tva.Policy.Granted _ -> true
    | Tva.Policy.Refused -> false);
  Alcotest.(check bool) "renewal refused" true
    (Tva.Policy.decide p ~now:1. ~src ~renewal:true = Tva.Policy.Refused);
  Alcotest.(check bool) "now blacklisted" true (Tva.Policy.is_blacklisted p src);
  (* An innocent host keeps being granted. *)
  let good = Wire.Addr.of_int 0x0a000002 in
  Alcotest.(check bool) "good host re-granted" true
    (match Tva.Policy.decide p ~now:2. ~src:good ~renewal:true with
    | Tva.Policy.Granted _ -> true
    | Tva.Policy.Refused -> false)

let policy_server_flood_detector () =
  let p = Tva.Policy.server ~flood_threshold_bps:1e6 () in
  (* 2 Mb/s sustained for two seconds trips the detector. *)
  for i = 1 to 200 do
    Tva.Policy.note_traffic p ~now:(float_of_int i *. 0.01) ~src ~bytes:2500 ~demoted:false
  done;
  Alcotest.(check bool) "flooder blacklisted" true (Tva.Policy.is_blacklisted p src);
  Alcotest.(check bool) "refused" true
    (Tva.Policy.decide p ~now:3. ~src ~renewal:false = Tva.Policy.Refused)

let policy_manual_blacklist () =
  let p = Tva.Policy.server () in
  Tva.Policy.blacklist p src;
  Alcotest.(check bool) "refused" true
    (Tva.Policy.decide p ~now:0. ~src ~renewal:false = Tva.Policy.Refused);
  (* blacklist on a non-server policy is a no-op *)
  let c = Tva.Policy.client () in
  Tva.Policy.blacklist c src;
  Alcotest.(check bool) "no-op" false (Tva.Policy.is_blacklisted c src)

(* --- Host protocol end to end --------------------------------------------- *)

(* A 4-node line: clientA - router - router - serverB, all TVA.  Each
   node counts in its own counters; [count name event] reads node [name]'s
   ("a", "r1", "r2" or "b"). *)
let make_tva_net ?(policy_b = Tva.Policy.server ()) () =
  let sim = Sim.create ~seed:77 () in
  let net = Net.create sim in
  let params = Tva.Params.default in
  let sink _node ~in_link:_ _p = () in
  let a = Net.add_node ~addr:src ~name:"a" net sink in
  let r1 = Net.add_node ~name:"r1" net sink in
  let r2 = Net.add_node ~name:"r2" net sink in
  let b = Net.add_node ~addr:dst ~name:"b" net sink in
  let connect x y =
    ignore
      (Net.duplex net x y ~bandwidth_bps:10e6 ~delay:0.005 ~qdisc:(fun () ->
           Tva.Qdiscs.make ~params ~bandwidth_bps:10e6 ()))
  in
  connect a r1;
  connect r1 r2;
  connect r2 b;
  Net.compute_routes net;
  let reg = Obs.Counters.registry () in
  let obs node = Obs.Counters.register reg ~name:(Net.node_name node) in
  let count name e =
    match Obs.Counters.find reg ~name with Some c -> Obs.Counters.get c e | None -> 0
  in
  let router1 =
    Tva.Router.create ~params ~obs:(obs r1) ~secret_master:"r1" ~router_id:(Net.node_id r1) ~sim
      ~link_bps:10e6 ()
  in
  Net.set_handler r1 (Tva.Router.handler router1);
  let router2 =
    Tva.Router.create ~params ~obs:(obs r2) ~secret_master:"r2" ~router_id:(Net.node_id r2) ~sim
      ~link_bps:10e6 ()
  in
  Net.set_handler r2 (Tva.Router.handler router2);
  let host_a =
    Tva.Host.create ~params ~obs:(obs a) ~policy:(Tva.Policy.client ()) ~node:a
      ~rng:(Rng.split (Sim.rng sim)) ()
  in
  let host_b =
    Tva.Host.create ~params ~obs:(obs b) ~auto_reply:true ~policy:policy_b ~node:b
      ~rng:(Rng.split (Sim.rng sim)) ()
  in
  (sim, host_a, host_b, router1, router2, count)

let host_bootstrap_and_grant () =
  let sim, host_a, _host_b, _, _, count = make_tva_net () in
  Tva.Host.send_raw host_a ~dst ~bytes:100;
  Sim.run ~until:1. sim;
  Alcotest.(check int) "request sent" 1 (count "a" Obs.Event.Request_sent);
  Alcotest.(check int) "grant issued" 1 (count "b" Obs.Event.Grant_issued);
  Alcotest.(check int) "grant received" 1 (count "a" Obs.Event.Grant_received);
  match Tva.Host.grant_for host_a ~dst with
  | Some g -> Alcotest.(check int) "two routers, two caps" 2 (List.length g.Tva.Host.caps)
  | None -> Alcotest.fail "no grant installed"

(* A request flooder's requests are requests sent: k flood packets count
   k, as k requests from [choose_shim] would. *)
let host_request_flood_counts_requests () =
  let sim, host_a, _host_b, _, _, count = make_tva_net () in
  let k = 7 in
  for _ = 1 to k do
    Tva.Host.send_request_flood_packet host_a ~dst ~bytes:250
  done;
  Alcotest.(check int) "k requests counted" k (count "a" Obs.Event.Request_sent);
  Sim.run ~until:1. sim;
  Alcotest.(check int) "still k after delivery" k (count "a" Obs.Event.Request_sent)

let host_regular_packets_validated () =
  let sim, host_a, _host_b, _, _, count = make_tva_net () in
  Tva.Host.send_raw host_a ~dst ~bytes:100;
  Sim.run ~until:1. sim;
  (* Now send data: first regular packet carries caps, later ones nonce
     only; zero demotions anywhere. *)
  for _ = 1 to 10 do
    Tva.Host.send_raw host_a ~dst ~bytes:1000
  done;
  Sim.run ~until:2. sim;
  Alcotest.(check int) "no demotions at r1" 0 (count "r1" Obs.Event.Demoted);
  Alcotest.(check int) "no demotions at r2" 0 (count "r2" Obs.Event.Demoted);
  Alcotest.(check bool) "r1 used its cache" true (count "r1" Obs.Event.Nonce_hit >= 9)

let host_renews_before_exhaustion () =
  let sim, host_a, _host_b, _, _, count = make_tva_net () in
  Tva.Host.send_raw host_a ~dst ~bytes:100;
  Sim.run ~until:1. sim;
  (* Push ~28 KB through a 32 KB grant: a renewal must fire and be granted,
     and nothing may be demoted. *)
  for _ = 1 to 28 do
    Tva.Host.send_raw host_a ~dst ~bytes:1000
  done;
  Sim.run ~until:3. sim;
  Alcotest.(check bool) "renewal sent" true (count "a" Obs.Event.Renewal_sent >= 1);
  Alcotest.(check bool) "renewal granted" true (count "a" Obs.Event.Grant_received >= 2);
  Alcotest.(check int) "no demotions seen at B" 0 (count "b" Obs.Event.Demotion_seen)

let host_demotion_echo_recovers () =
  let sim, host_a, host_b, router1, router2, count = make_tva_net () in
  Tva.Host.send_raw host_a ~dst ~bytes:100;
  Sim.run ~until:1. sim;
  Tva.Host.send_raw host_a ~dst ~bytes:1000;
  Sim.run ~until:2. sim;
  (* Routers lose all state (route change): the next nonce-only packet is
     demoted, B echoes, A re-requests and traffic recovers. *)
  Tva.Router.flush_cache router1;
  Tva.Router.flush_cache router2;
  Tva.Host.send_raw host_a ~dst ~bytes:1000;
  Sim.run ~until:3. sim;
  Alcotest.(check bool) "demoted packet reached B" true (count "b" Obs.Event.Demotion_seen >= 1);
  (* B owes A a demotion echo; it rides B's next packet (auto-reply covers
     the raw-traffic case only for grants, so send something from B). *)
  Tva.Host.send_raw host_b ~dst:src ~bytes:100;
  Sim.run ~until:4. sim;
  Alcotest.(check bool) "echo delivered" true (count "b" Obs.Event.Demotion_echo_sent >= 1);
  Tva.Host.send_raw host_a ~dst ~bytes:1000;
  Sim.run ~until:6. sim;
  Alcotest.(check bool) "A re-requested" true (count "a" Obs.Event.Request_sent >= 2);
  Alcotest.(check bool) "fresh grant works" true (count "a" Obs.Event.Grant_received >= 2)

let host_refusal_blocks_sender () =
  let sim, host_a, _host_b, _, _, count = make_tva_net ~policy_b:(Tva.Policy.refuse_all ()) () in
  Tva.Host.send_raw host_a ~dst ~bytes:100;
  Sim.run ~until:1. sim;
  Alcotest.(check int) "refused" 1 (count "b" Obs.Event.Request_refused);
  Alcotest.(check bool) "no grant" true (Tva.Host.grant_for host_a ~dst = None)

let host_tcp_transfer_over_tva () =
  let sim, host_a, host_b, _, _, _ = make_tva_net () in
  let outcome = ref None in
  let server = ref None in
  Tva.Host.set_segment_handler host_b (fun ~src:from seg ->
      let s =
        match !server with
        | Some s -> s
        | None ->
            let s =
              Tcp.Conn.create_server ~sim ~conn_id:seg.Wire.Tcp_segment.conn
                ~tx:(fun reply -> Tva.Host.send_segment host_b ~dst:from reply)
                ()
            in
            server := Some s;
            s
      in
      Tcp.Conn.server_receive s seg);
  let client =
    Tcp.Conn.create_client ~sim ~conn_id:1 ~transfer_bytes:(20 * 1024)
      ~tx:(fun seg -> Tva.Host.send_segment host_a ~dst seg)
      ~on_complete:(fun o -> outcome := Some o)
      ()
  in
  Tva.Host.set_segment_handler host_a (fun ~src:_ seg -> Tcp.Conn.client_receive client seg);
  Tcp.Conn.start client;
  Sim.run ~until:10. sim;
  match !outcome with
  | Some (Tcp.Conn.Completed { duration }) ->
      Alcotest.(check bool) (Printf.sprintf "fast (%.3fs)" duration) true (duration < 0.4)
  | Some (Tcp.Conn.Aborted { reason; _ }) -> Alcotest.failf "aborted: %s" reason
  | None -> Alcotest.fail "hung"

let suite =
  [
    Alcotest.test_case "mint+validate" `Quick mint_and_validate;
    Alcotest.test_case "bound to addresses" `Quick validation_is_bound_to_addresses;
    Alcotest.test_case "bound to N,T" `Quick validation_is_bound_to_n_and_t;
    Alcotest.test_case "bound to secret" `Quick validation_is_bound_to_router_secret;
    Alcotest.test_case "expiry" `Quick capability_expires_after_t;
    Alcotest.test_case "survives rotation" `Quick capability_survives_secret_rotation_within_t;
    QCheck_alcotest.to_alcotest forged_capabilities_rejected;
    Alcotest.test_case "aes+sha pairing" `Quick two_hash_pairing_matches;
    Alcotest.test_case "path id stable" `Quick path_id_deterministic;
    Alcotest.test_case "path id 16-bit" `Quick path_id_16_bits;
    Alcotest.test_case "path id most recent" `Quick path_id_most_recent;
    Alcotest.test_case "path id regular no-op" `Quick path_id_ignores_regular;
    Alcotest.test_case "cache charge/limit" `Quick cache_charges_and_limits;
    Alcotest.test_case "cache oversize insert" `Quick cache_over_limit_first_packet;
    Alcotest.test_case "cache ttl reclaim" `Quick cache_ttl_reclaim;
    Alcotest.test_case "cache bounded" `Quick cache_bounded_size;
    Alcotest.test_case "cache full reclaims" `Quick cache_full_reclaims_expired;
    Alcotest.test_case "cache lookup/remove" `Quick cache_lookup_and_remove;
    Alcotest.test_case "cache miss sentinel" `Quick cache_miss_sentinel;
    Alcotest.test_case "cache renew" `Quick cache_renew_resets_budget;
    Alcotest.test_case "cache churn allocation" `Quick cache_churn_allocation;
    QCheck_alcotest.to_alcotest two_n_byte_bound;
    QCheck_alcotest.to_alcotest no_eviction_means_exactly_n;
    Alcotest.test_case "router stamps requests" `Quick router_stamps_requests;
    Alcotest.test_case "router no tag inside domain" `Quick non_boundary_router_does_not_tag;
    Alcotest.test_case "router validate+cache" `Quick router_validates_and_caches;
    Alcotest.test_case "router demotes forgery" `Quick router_demotes_forgeries;
    Alcotest.test_case "router demotes unknown nonce" `Quick router_demotes_unknown_nonce;
    Alcotest.test_case "router byte limit" `Quick router_enforces_byte_limit;
    Alcotest.test_case "router expiry" `Quick router_enforces_expiry;
    Alcotest.test_case "router renewal" `Quick router_renewal_mints_fresh_precap;
    Alcotest.test_case "router cache flush" `Quick router_cache_flush_demotes_nonce_only;
    Alcotest.test_case "router secret rotation" `Quick router_secret_rotation_invalidates;
    Alcotest.test_case "router two rotations distinct" `Quick router_two_rotations_distinct;
    Alcotest.test_case "router cached path allocation" `Quick router_cached_path_allocation_budget;
    Alcotest.test_case "router validate path allocation" `Quick
      router_validate_path_allocation_budget;
    Alcotest.test_case "router request path allocation" `Quick
      router_request_path_allocation_budget;
    Alcotest.test_case "router legacy" `Quick router_passes_legacy;
    Alcotest.test_case "router demoted passthrough" `Quick router_skips_demoted;
    Alcotest.test_case "policy allow_all" `Quick policy_allow_all;
    Alcotest.test_case "policy refuse_all" `Quick policy_refuse_all;
    Alcotest.test_case "policy client" `Quick policy_client_requires_contact;
    Alcotest.test_case "policy server suspicious" `Quick policy_server_grants_once_to_suspicious;
    Alcotest.test_case "policy flood detector" `Quick policy_server_flood_detector;
    Alcotest.test_case "policy manual blacklist" `Quick policy_manual_blacklist;
    Alcotest.test_case "host bootstrap" `Quick host_bootstrap_and_grant;
    Alcotest.test_case "host flood requests counted" `Quick host_request_flood_counts_requests;
    Alcotest.test_case "host regular traffic" `Quick host_regular_packets_validated;
    Alcotest.test_case "host renewal" `Quick host_renews_before_exhaustion;
    Alcotest.test_case "host demotion echo" `Quick host_demotion_echo_recovers;
    Alcotest.test_case "host refusal" `Quick host_refusal_blocks_sender;
    Alcotest.test_case "host tcp transfer" `Quick host_tcp_transfer_over_tva;
  ]
