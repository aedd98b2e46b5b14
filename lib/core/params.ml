type t = {
  request_fraction : float;
  request_burst_bytes : int;
  default_n_kb : int;
  default_t_sec : int;
  min_rate_bytes_per_sec : float;
  renewal_bytes_threshold : float;
  renewal_time_threshold : float;
  mtu : int;
  queue_capacity_bytes : int;
  max_path_id_queues : int;
}

let default =
  {
    request_fraction = 0.05;
    request_burst_bytes = 4000;
    default_n_kb = 32;
    default_t_sec = 10;
    (* 4 KB / 10 s, the example rate floor from Sec. 3.6. *)
    min_rate_bytes_per_sec = 4096. /. 10.;
    renewal_bytes_threshold = 0.5;
    renewal_time_threshold = 0.5;
    mtu = 1500;
    queue_capacity_bytes = 64 * 1024;
    max_path_id_queues = 1024;
  }

let flow_cache_capacity t ~link_bps =
  max 64 (int_of_float (link_bps /. 8. /. t.min_rate_bytes_per_sec))
