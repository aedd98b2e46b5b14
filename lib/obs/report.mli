(** The end-of-run observability report: plain data (safe to build inside a
    {!Pool} worker domain and move across), with JSON and text-dashboard
    renderings. *)

type qdisc_row = {
  q_name : string;
  q_enqueued : int;
  q_dequeued : int;
  q_dropped : int;
  q_bytes_enqueued : int;
  q_bytes_dequeued : int;
  q_bytes_dropped : int;
  q_hwm : int;
  q_residual_packets : int;  (** still queued when the run ended *)
  q_residual_bytes : int;
}

type link_row = {
  l_name : string;  (** ["src->dst"] *)
  l_tx_packets : int;
  l_tx_bytes : int;
  l_qdiscs : qdisc_row list;  (** composite walked parent-first *)
}

type cache_row = {
  c_router : string;
  c_size : int;
  c_capacity : int;
  c_evictions : int;
  c_hwm : int;
}

type profile_row = { p_kind : string; p_events : int; p_wall_s : float }

type series_row = {
  s_name : string;
  s_mode : string;  (** ["cumulative"] (stats over per-second rates) or ["level"] *)
  s_windows : int;
  s_mean : float;
  s_max : float;
  s_p50 : float;
  s_p99 : float;
  s_spark : string;  (** sparkline over the surviving windows, oldest first *)
}
(** One telemetry channel summarized over its interval windows. *)

type t = {
  counters : Counters.snap;
  links : link_row list;
  caches : cache_row list;
  profile : profile_row list;
  events : int;  (** events the loop fired; [0] = not measured *)
  wall_s : float;  (** event-loop wall seconds; [0.] = not measured *)
  trace_jsonl : string option;
  series : series_row list;  (** empty unless telemetry was on *)
  series_interval : float;  (** [0.] unless telemetry was on *)
  series_json : Export.t option;  (** the full interval dump, for [--stats] *)
  incidents : Detect.incident list;
      (** the detectors' incidents, onset order, finalized by
          {!Detect.finish}: none is still active, so every [in_clear] is a
          time *)
}

val empty : t

(** {1 Builders} — snapshot live structures into plain data. *)

val link_rows_of_net : Net.t -> link_row list
val profile_rows : Profile.t -> profile_row list

val trace_jsonl : ?node_name:(int -> string) -> Trace.t -> string option
(** [None] when the trace is disabled or empty. *)

val series_rows : Timeseries.t -> series_row list
(** Summarize every channel over its surviving windows — cumulative
    channels over their per-second rates, level channels over raw values
    (exact percentiles; runs once, at report build). *)

val sparkline : ?width:int -> float array -> string
(** The last [width] (default 48) values as block glyphs scaled to their
    max. *)

val merge_counters : t list -> Counters.snap
(** Left fold of the reports' counter snapshots in list order; feeding
    [Pool.map] results in submission order makes the aggregate independent
    of [--jobs]. *)

(** {1 Rendering} *)

val to_json : t -> Export.t

val counters_json : Counters.snap -> Export.t
(** The counter section alone (nonzero events only), for aggregates that
    are not a whole report. *)

val pp_dashboard : Format.formatter -> t -> unit

val pp_series : Format.formatter -> t -> unit
(** The interval-series tables alone (what [tva_sim run --telemetry] and
    [tva_sim scale --telemetry] print); included in {!pp_dashboard} when
    telemetry was on. *)

val pp_incidents : Format.formatter -> Detect.incident list -> unit
