(** The static taxonomy of datapath events (DESIGN.md §10).

    Counters ({!Counters}) and the trace ring ({!Trace}) index preallocated
    arrays by {!to_int}, which is why the enumeration is closed and dense:
    an increment is one unsafe array load/store, never a hash or a lookup. *)

type t =
  | Packets_in  (** every packet entering [Router.process] *)
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

val count : int
(** Number of constructors; the length of every counter array. *)

val to_int : t -> int
(** Dense index in [\[0, count)]. *)

val name_of_int : int -> string
val all : t list
(** In [to_int] order. *)
