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

let flows = 1024
let n_kb = 1023
let t_sec = 32

(* One op's packets: [sets.(pass land 1).(f)] is flow [f]'s packet on
   [pass].  Single-set ops hold the same array twice.  Ops that share
   flows share the pass count too. *)
type lane = { sets : Wire.Packet.t array array; passes : int ref }

type t = {
  router : Tva.Router.t;
  obs : Obs.Counters.t; (* the router's own counters, read by [on_branch] *)
  legacy : lane;
  request : lane;
  regular_cached : lane;
  regular_uncached : lane;
  renewal_cached : lane;
  renewal_uncached : lane;
}

let router t = t.router

let lane t = function
  | Legacy_forward -> t.legacy
  | Request -> t.request
  | Regular_cached -> t.regular_cached
  | Regular_uncached -> t.regular_uncached
  | Renewal_cached -> t.renewal_cached
  | Renewal_uncached -> t.renewal_uncached

(* Undo what the router wrote into the shim, so a packet can be sent
   again: the capability pointer and the lists routers append to.  A list
   store is a [caml_modify] call, so a list already empty (a regular
   packet that is not a renewal) is left alone. *)
let rewind (p : Wire.Packet.t) =
  match p.Wire.Packet.shim with
  | None -> ()
  | Some shim -> begin
      shim.Wire.Cap_shim.ptr <- 0;
      match shim.Wire.Cap_shim.kind with
      | Wire.Cap_shim.Request req ->
          req.Wire.Cap_shim.rev_path_ids <- [];
          req.Wire.Cap_shim.rev_precaps <- []
      | Wire.Cap_shim.Regular r -> (
          match r.Wire.Cap_shim.rev_fresh_precaps with
          | [] -> ()
          | _ :: _ -> r.Wire.Cap_shim.rev_fresh_precaps <- [])
    end

let send router p =
  rewind p;
  Tva.Router.process router ~in_interface:0 p

let create ?(hash = (module Crypto.Keyed_hash.Prototype : Crypto.Keyed_hash.S)) () =
  let obs = Obs.Counters.create ~name:"fastpath" () in
  let router =
    Tva.Router.create ~hash ~obs ~secret_master:"forwarder-bench" ~router_id:1
      ~sim:(Sim.create ()) ~link_bps:1e9 ()
  in
  let flow_packets ~dst shim =
    Array.init flows (fun f ->
        Wire.Packet.make ?shim:(shim f) ~src:(Wire.Addr.of_int (0x0A000000 + f))
          ~dst:(Wire.Addr.of_int dst) (Wire.Packet.Raw 64))
  in
  let single set = { sets = [| set; set |]; passes = ref 0 } in
  (* One capability per flow, minted by the router's own request path and
     converted destination-side. *)
  let grant ~dst =
    Array.map
      (fun (p : Wire.Packet.t) ->
        send router p;
        match p.Wire.Packet.shim with
        | Some { Wire.Cap_shim.kind = Wire.Cap_shim.Request { rev_precaps = [ precap ]; _ }; _ } ->
            Tva.Capability.cap_of_precap ~hash ~precap ~n_kb ~t_sec
        | _ -> failwith "Fastpath.create: a request gained no pre-capability")
      (flow_packets ~dst (fun _ -> Some (Wire.Cap_shim.request ())))
  in
  let regular ~dst ~renewal ~nonce caps =
    flow_packets ~dst (fun f ->
        Some (Wire.Cap_shim.regular ~nonce ~caps:(caps f) ~n_kb ~t_sec ~renewal ()))
  in
  (* The regular and renewal op of each kind share one destination's flows
     and records, keeping the flow cache as small as one op's would be.
     The cached ops send nonce-only packets matching the record that one
     validated packet per flow established. *)
  let cached ~dst =
    let caps = grant ~dst in
    Array.iter (send router) (regular ~dst ~renewal:false ~nonce:1L (fun f -> [ caps.(f) ]));
    let passes = ref 0 in
    let lane renewal =
      let set = regular ~dst ~renewal ~nonce:1L (fun _ -> []) in
      { sets = [| set; set |]; passes }
    in
    (lane false, lane true)
  in
  (* The uncached ops alternate two nonce sets that both list the
     capability, on one shared pass count, so every packet finds the other
     set's nonce in its flow's record and takes the validate-and-renew
     branch however the two ops interleave.  Priming with the second set
     makes pass 0 mismatch too. *)
  let uncached ~dst =
    let caps = grant ~dst in
    let set ~renewal nonce = regular ~dst ~renewal ~nonce (fun f -> [ caps.(f) ]) in
    Array.iter (send router) (set ~renewal:false 2L);
    let passes = ref 0 in
    let lane renewal = { sets = [| set ~renewal 1L; set ~renewal 2L |]; passes } in
    (lane false, lane true)
  in
  let regular_cached, renewal_cached = cached ~dst:0x0B000003 in
  let regular_uncached, renewal_uncached = uncached ~dst:0x0B000004 in
  {
    router;
    obs;
    legacy = single (flow_packets ~dst:0x0B000001 (fun _ -> None));
    request = single (flow_packets ~dst:0x0B000002 (fun _ -> Some (Wire.Cap_shim.request ())));
    regular_cached;
    regular_uncached;
    renewal_cached;
    renewal_uncached;
  }

(* Ops whose packets come back from the router unchanged — no shim, or a
   nonce-only shim with no capability to step past and no list to append
   to — skip the rewind, so their loops time the router alone. *)
let pass t op =
  let { sets; passes } = lane t op in
  let packets = sets.(!passes land 1) in
  incr passes;
  match op with
  | Legacy_forward | Regular_cached ->
      for f = 0 to flows - 1 do
        Tva.Router.process t.router ~in_interface:0 packets.(f)
      done
  | Request | Regular_uncached | Renewal_cached | Renewal_uncached ->
      for f = 0 to flows - 1 do
        send t.router packets.(f)
      done

(* The events that move once per packet on each op's branch.  A
   [Nonce_hit] is a cache accept as long as nothing is demoted, which
   [on_branch] requires. *)
let branch_events = function
  | Legacy_forward -> [ Obs.Event.Legacy_in ]
  | Request -> [ Obs.Event.Request_in ]
  | Regular_cached -> [ Obs.Event.Nonce_hit ]
  | Regular_uncached -> [ Obs.Event.Regular_validated ]
  | Renewal_cached -> [ Obs.Event.Nonce_hit; Obs.Event.Renewal ]
  | Renewal_uncached -> [ Obs.Event.Regular_validated; Obs.Event.Renewal ]

let on_branch t op ~packets f =
  let count = Obs.Counters.get t.obs in
  let cache = Tva.Router.cache t.router in
  let before = List.map count (branch_events op)
  and demotions = count Obs.Event.Demoted
  and records = Tva.Flow_cache.size cache in
  let result = f () in
  let moved = List.map2 (fun e n -> count e - n) (branch_events op) before in
  let demoted = count Obs.Event.Demoted - demotions
  and inserted = Tva.Flow_cache.size cache - records in
  if List.exists (( <> ) packets) moved || demoted <> 0 || inserted <> 0 then
    failwith
      (Printf.sprintf "%s: %d packets moved the branch counters by %s (%d demoted, %d inserted)"
         (op_name op) packets
         (String.concat "/" (List.map string_of_int moved))
         demoted inserted);
  result

type measurement = { ns_per_packet : float; slice_ns : float array; minor_words_per_packet : float }

(* The ops are timed in [slices] rounds.  Each round gives every op its
   next share of the passes, one op after the other, so a change in host
   load during the run (another tenant's burst on a shared core) falls on
   all of them alike.  Timed whole and one after the other, the legacy
   op's few milliseconds could land in a quiet spell that the validate
   op's tenth of a second missed, and on a shared 2-core host the ratio
   of the two read anywhere from 20x to 38x on unchanged code. *)
let slices = 16

let median xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let measure t ~passes ops =
  let passes = max 1 passes in
  let slices = min slices passes in
  let timed = List.map (fun op -> (op, Array.make slices 0., ref 0.)) ops in
  for k = 0 to slices - 1 do
    (* Slice [k] of [passes]: the shares differ by at most one pass. *)
    let n = (passes * (k + 1) / slices) - (passes * k / slices) in
    List.iter
      (fun (op, ns, words) ->
        (* The collection and the untimed pass leave the heap clean and
           the op's packets and records back in cache, so a share starts
           where the op would stand had it run alone.  Time and
           allocation are read across the same loop. *)
        on_branch t op ~packets:(flows * (n + 1)) (fun () ->
            Gc.full_major ();
            pass t op;
            let words0 = Gc.minor_words () in
            let t0 = Unix.gettimeofday () in
            for _ = 1 to n do
              pass t op
            done;
            ns.(k) <- (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (flows * n);
            words := !words +. (Gc.minor_words () -. words0)))
      timed
  done;
  let packets = float_of_int (flows * passes) in
  List.map
    (fun (op, ns, words) ->
      (op, { ns_per_packet = median ns; slice_ns = ns; minor_words_per_packet = !words /. packets }))
    timed

(* The budgets were set at about twice the ratios of an -opaque build;
   the release build runs the short legacy path relatively faster, so
   validate sits near its budget.  Each slice's share of an op is set
   against the legacy share of the same slice, and the median of those
   ratios is the stage's: a load swing between slices, or a burst inside
   one, moves one pair and not the median.  Over 20 runs on a shared
   2-core host, validate read 20.5-24.1x this way, against 17.5-24.1x for
   the ratio of the totals and 19.7-27.2x for the ratio of the per-op
   medians. *)
let stage_ratios results =
  let slices op = (List.assoc op results).slice_ns in
  let legacy = slices Legacy_forward in
  List.map
    (fun (op, budget) -> (op, median (Array.mapi (fun k ns -> ns /. legacy.(k)) (slices op)), budget))
    [ (Regular_cached, 10.); (Regular_uncached, 25.); (Request, 20.) ]
