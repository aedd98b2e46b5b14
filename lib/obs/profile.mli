(** Event-loop profiler: per-{!Sim.Kind} wall time and event counts, via a
    {!Sim.probe}.  Sim-time sampling (queue depths, footprint) is
    {!Timeseries}'s job. *)

type t

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

val kind_rows : t -> (string * int * float * float) list
(** Nonzero kinds in kind order: (name, events, wall seconds, ns/event). *)
