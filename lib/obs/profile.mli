(** Event-loop profiler: per-{!Sim.Kind} wall time and event counts
    (via a {!Sim.probe}), plus named occupancy gauges sampled on a sim-time
    cadence into {!Stats.Histogram}/{!Stats.Summary}. *)

type t

type gauge

val create : clock:(unit -> float) -> unit -> t
(** [clock] supplies wall time (drivers pass [Unix.gettimeofday]). *)

val attach : t -> Sim.t -> unit
(** Install the probe; every fired event is then counted and timed under
    its scheduling-site kind.  Observation only — scheduling order is
    untouched. *)

val detach : Sim.t -> unit

val hit : t -> kind:int -> dt:float -> unit
(** The raw accumulator (exposed for tests). *)

val events : t -> kind:int -> int
val wall_s : t -> kind:int -> float
val total_events : t -> int
val total_wall_s : t -> float

val kind_rows : t -> (string * int * float * float) list
(** Nonzero kinds in kind order: (name, events, wall seconds, ns/event). *)

(** {1 Gauges} *)

val gauge : t -> name:string -> lo:float -> hi:float -> bins:int -> gauge
(** Find or create a named log-scale histogram gauge (zero values land in
    the underflow bucket). *)

val observe : gauge -> float -> unit

val sample_every :
  t -> Sim.t -> period:float -> (gauge * (unit -> float)) list -> unit
(** Schedule a recurring auxiliary sim event ({!Sim.schedule_aux}, kind
    [Sim.Kind.obs]) that reads each gauge's source every [period] sim
    seconds, starting one period in.  Auxiliary events take no normal
    sequence numbers, so gauge-enabled runs are bit-identical to
    unobserved ones; at equal time a sample fires before every normal
    event.  Raises [Invalid_argument] on a nonpositive period. *)

val samples : t -> int
val gauges : t -> gauge list
val gauge_name : gauge -> string
val gauge_hist : gauge -> Stats.Histogram.t
val gauge_summary : gauge -> Stats.Summary.t

val memory_gauges : t -> Sim.t -> period:float -> unit
(** Register and sample two footprint gauges every [period] sim seconds:
    ["live-heap-words"] (major-heap words, [Gc.quick_stat]) and
    ["sim-pending-events"] ({!Sim.pending}).  Their [g_max] in
    {!Report.gauge_rows} is the peak-memory number the scale benchmark
    reports, so BENCH_scale.json and the dashboard read the same
    snapshots. *)
