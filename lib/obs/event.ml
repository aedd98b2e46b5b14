(* The static taxonomy of datapath events.  Counter arrays and trace-ring
   filters are indexed by [to_int], so the enumeration must stay dense:
   adding a constructor means extending [to_int] and [named] together
   (test_obs's "counters basics" pins the two in sync). *)

type t =
  (* router ingress, one per packet *)
  | Packets_in
  | Legacy_in
  | Request_in
  | Regular_in
  (* request path *)
  | Request_minted
  | Demoted_header_full
  (* regular path verdicts *)
  | Nonce_hit
  | Nonce_miss
  | Regular_validated
  | Renewal
  | Demoted_bad_cap
  | Demoted_cap_expired
  | Demoted_no_cap
  | Demoted_bytes_exhausted
  | Demoted_cache_full
  | Demoted_over_limit
  | Demoted
  (* flow-cache lifecycle *)
  | Cache_inserted
  | Cache_renewed
  | Cache_evicted
  (* link / forwarding sites (recorded by the Net bridge) *)
  | Queue_drop_request
  | Queue_drop_regular
  | Queue_drop_legacy
  | No_route
  | Hops_exceeded
  | Transmitted
  | Delivered
  (* fault injection / recovery (lib/faults + Host) *)
  | Fault_injected
  | Demoted_recovered
  | Reacquired
  (* TVA host protocol (Host) *)
  | Request_sent
  | Renewal_sent
  | Grant_received
  | Refusal_received
  | Demotion_seen
  | Demotion_echo_sent
  | Grant_issued
  | Request_refused
  (* comparator verdicts (Siff.Router, Netfence.Router, Pushback) *)
  | Siff_no_marking
  | Siff_bad_marking
  | Nf_policed
  | Nf_token_rejected
  | Filter_slot_refused

let to_int = function
  | Packets_in -> 0
  | Legacy_in -> 1
  | Request_in -> 2
  | Regular_in -> 3
  | Request_minted -> 4
  | Demoted_header_full -> 5
  | Nonce_hit -> 6
  | Nonce_miss -> 7
  | Regular_validated -> 8
  | Renewal -> 9
  | Demoted_bad_cap -> 10
  | Demoted_cap_expired -> 11
  | Demoted_no_cap -> 12
  | Demoted_bytes_exhausted -> 13
  | Demoted_cache_full -> 14
  | Demoted_over_limit -> 15
  | Demoted -> 16
  | Cache_inserted -> 17
  | Cache_renewed -> 18
  | Cache_evicted -> 19
  | Queue_drop_request -> 20
  | Queue_drop_regular -> 21
  | Queue_drop_legacy -> 22
  | No_route -> 23
  | Hops_exceeded -> 24
  | Transmitted -> 25
  | Delivered -> 26
  | Fault_injected -> 27
  | Demoted_recovered -> 28
  | Reacquired -> 29
  | Request_sent -> 30
  | Renewal_sent -> 31
  | Grant_received -> 32
  | Refusal_received -> 33
  | Demotion_seen -> 34
  | Demotion_echo_sent -> 35
  | Grant_issued -> 36
  | Request_refused -> 37
  | Siff_no_marking -> 38
  | Siff_bad_marking -> 39
  | Nf_policed -> 40
  | Nf_token_rejected -> 41
  | Filter_slot_refused -> 42

let named =
  [
    (Packets_in, "packets_in");
    (Legacy_in, "legacy_in");
    (Request_in, "request_in");
    (Regular_in, "regular_in");
    (Request_minted, "request_minted");
    (Demoted_header_full, "demoted_header_full");
    (Nonce_hit, "nonce_hit");
    (Nonce_miss, "nonce_miss");
    (Regular_validated, "regular_validated");
    (Renewal, "renewal");
    (Demoted_bad_cap, "demoted_bad_cap");
    (Demoted_cap_expired, "demoted_cap_expired");
    (Demoted_no_cap, "demoted_no_cap");
    (Demoted_bytes_exhausted, "demoted_bytes_exhausted");
    (Demoted_cache_full, "demoted_cache_full");
    (Demoted_over_limit, "demoted_over_limit");
    (Demoted, "demoted");
    (Cache_inserted, "cache_inserted");
    (Cache_renewed, "cache_renewed");
    (Cache_evicted, "cache_evicted");
    (Queue_drop_request, "queue_drop_request");
    (Queue_drop_regular, "queue_drop_regular");
    (Queue_drop_legacy, "queue_drop_legacy");
    (No_route, "no_route");
    (Hops_exceeded, "hops_exceeded");
    (Transmitted, "transmitted");
    (Delivered, "delivered");
    (Fault_injected, "fault_injected");
    (Demoted_recovered, "demoted_recovered");
    (Reacquired, "reacquired");
    (Request_sent, "request_sent");
    (Renewal_sent, "renewal_sent");
    (Grant_received, "grant_received");
    (Refusal_received, "refusal_received");
    (Demotion_seen, "demotion_seen");
    (Demotion_echo_sent, "demotion_echo_sent");
    (Grant_issued, "grant_issued");
    (Request_refused, "request_refused");
    (Siff_no_marking, "siff_no_marking");
    (Siff_bad_marking, "siff_bad_marking");
    (Nf_policed, "nf_policed");
    (Nf_token_rejected, "nf_token_rejected");
    (Filter_slot_refused, "filter_slot_refused");
  ]

let count = List.length named
let all = List.map fst named
let names = Array.of_list (List.map snd named)

let name_of_int i = if i >= 0 && i < count then names.(i) else "?"
