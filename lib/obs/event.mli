(** The static taxonomy of datapath events (DESIGN.md §10).

    Counters ({!Counters}) and the trace ring ({!Trace}) index preallocated
    arrays by {!to_int}, which is why the enumeration is closed and dense:
    an increment is one unsafe array load/store, never a hash or a lookup.
    A router's drop reasons sum to its [Packets_in] minus the packets it
    forwards (TVA demotes and drops nothing). *)

type t =
  | Packets_in  (** every packet a TVA, SIFF or NetFence router handles *)
  | Legacy_in  (** shimless or already-demoted arrivals *)
  | Request_in
  | Regular_in
  | Request_minted  (** a pre-capability was appended to a request *)
  | Demoted_header_full  (** request shim out of pre-capability slots *)
  | Nonce_hit  (** flow-cache hit on the 48-bit nonce *)
  | Nonce_miss  (** cache entry present but nonce differs (renewal or stale) *)
  | Regular_validated  (** validated via the two capability hashes *)
  | Renewal  (** fresh pre-capability minted into a renewal packet *)
  | Demoted_bad_cap  (** listed capability failed the hash check *)
  | Demoted_cap_expired  (** T window passed on the modulo clock *)
  | Demoted_no_cap  (** no capability addressed to this router *)
  | Demoted_bytes_exhausted  (** cached grant's N bytes spent *)
  | Demoted_cache_full  (** no reclaimable flow-cache record *)
  | Demoted_over_limit  (** single packet larger than the grant's N *)
  | Demoted  (** total demotions, = sum of the [Demoted_*] reasons *)
  | Cache_inserted
  | Cache_renewed
  | Cache_evicted  (** reclaimed by the cursor sweep or a full sweep *)
  | Queue_drop_request
  | Queue_drop_regular
  | Queue_drop_legacy
  | No_route
  | Hops_exceeded
  | Transmitted  (** packet began serialization on an out-link *)
  | Delivered  (** packet handed to a node's handler after propagation *)
  | Fault_injected
      (** one injected fault took effect: a link-level loss/corrupt/dup/
          reorder decision, or a scheduled control event (down, flap edge,
          cache wipe, secret rotation, restart) firing (DESIGN.md §11) *)
  | Demoted_recovered
      (** a destination saw a previously-demoted source deliver a
          non-demoted regular packet again — end of its demotion episode *)
  | Reacquired
      (** a sender whose grant was cancelled by a demotion echo received a
          fresh grant; {!Tva.Host.reacquire_latencies} records the delay *)
  (* TVA host protocol, counted by [Tva.Host] *)
  | Request_sent
  | Renewal_sent
  | Grant_received
  | Refusal_received  (** an empty grant came back *)
  | Demotion_seen  (** a demoted packet arrived for this host *)
  | Demotion_echo_sent
  | Grant_issued
  | Request_refused
  (* the comparators' verdicts *)
  | Siff_no_marking  (** SIFF dropped a DTA packet with no marking for it *)
  | Siff_bad_marking  (** SIFF dropped a DTA packet whose marking failed *)
  | Nf_policed  (** NetFence dropped a packet over its sender's policed rate *)
  | Nf_token_rejected  (** a forged or stale NetFence token (not a drop) *)
  | Filter_slot_refused  (** pushback had no filter slot left (its [max_filters]) *)

val count : int
(** Number of constructors; the length of every counter array. *)

val to_int : t -> int
(** Dense index in [\[0, count)]. *)

val name_of_int : int -> string
val all : t list
(** In [to_int] order. *)
