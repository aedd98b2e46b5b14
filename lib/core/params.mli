(** Protocol parameters, gathered in one record so experiments can vary
    them (the paper runs its simulations with requests limited to 1% of
    capacity instead of the 5% architectural default, for example). *)

type t = {
  request_fraction : float;
      (** Fraction of each link's capacity reserved for (and capping)
          request packets.  Paper default 5%; simulations use 1%. *)
  request_burst_bytes : int;
      (** Token-bucket depth for the request limiter. *)
  default_n_kb : int;  (** Default grant size N, in KB (10-bit field). *)
  default_t_sec : int;  (** Default grant validity T, in seconds (6-bit field). *)
  min_rate_bytes_per_sec : float;
      (** The architectural constraint (N/T)_min; with link capacity C it
          bounds flow-cache size to C / (N/T)_min records (Sec. 3.6). *)
  renewal_bytes_threshold : float;
      (** Renew when bytes used exceed this fraction of N. *)
  renewal_time_threshold : float;
      (** Renew when elapsed time exceeds this fraction of T. *)
  mtu : int;
  queue_capacity_bytes : int;  (** Per-class queue depth at routers. *)
  max_path_id_queues : int;  (** Bound on request fair-queue classes. *)
}

val default : t

val flow_cache_capacity : t -> link_bps:float -> int
(** C / (N/T)_min, the provisioned number of flow-cache records for a link
    of the given capacity (at least 64). *)
