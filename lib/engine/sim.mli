(** The discrete-event simulation core.

    A simulator owns a virtual clock and a pending-event queue.  Events
    fire in nondecreasing time order; ties break by scheduling order, which
    makes runs deterministic.  All network components (links, hosts,
    routers) hang their behaviour off this module.

    Two queue implementations sit behind the same API and fire events in
    {e identical} order (differential-tested): the reference 4-ary heap,
    and a hierarchical timing wheel for runs with very large pending sets
    (hundreds of thousands of concurrent timers), where O(1) insert beats
    the heap's O(log n) sift. *)

type t

type sched = Heap | Wheel
(** The pending-event queue implementation.  [Heap] is the reference 4-ary
    (time, seq) min-heap — the default, and what every committed figure is
    pinned to.  [Wheel] is a 4-level, 256-slot hierarchical timing wheel at
    1 us resolution whose reached ticks drain through a small (time, seq)
    heap, so its firing order is identical to [Heap]'s. *)

val sched : t -> sched

val sched_of_string : string -> (sched, string) result
(** ["heap"] or ["wheel"]. *)

val sched_to_string : sched -> string

val recommended_sched : expected_pending:int -> sched
(** Scheduler auto-selection: [Wheel] once the expected steady-state
    pending-event count is large enough (>= 8192) that heap sifts dominate,
    [Heap] otherwise. *)

type handle
(** A scheduled event, usable for cancellation (e.g. retransmit timers).
    Its action field holds the callback until the event fires or is
    cancelled, then a shared sentinel, so a handle kept after firing pins
    no closure. *)

(** Scheduling-site tags carried by every event, read only by an attached
    {!probe}.  Sites that matter to the event-loop profiler (link
    transmitters, propagation deliveries, qdisc polls, TCP timers, workload
    agents) pass their tag to {!schedule}; everything else defaults to
    {!Kind.other}. *)
module Kind : sig
  val other : int
  val net_transmit : int
  val net_deliver : int
  val net_poll : int
  val tcp_timer : int
  val agent : int
  val obs : int

  val fault : int
  (** scheduled fault-injection control events (link down/up, flap edges,
      cache wipes, secret rotations, restarts) *)

  val telemetry : int
  (** cadence-scheduled telemetry snapshot ticks ({!Obs.Timeseries}); always
      scheduled through {!schedule_aux} so they never perturb normal
      sequence numbers *)

  val count : int
  val name : int -> string
end

type probe = {
  pr_clock : unit -> float;  (** wall-clock source (e.g. [Unix.gettimeofday]) *)
  pr_hit : kind:int -> dt:float -> unit;
      (** called after every fired action with its kind tag and wall time *)
}
(** The event-loop profiler hook.  The clock is injected so the engine
    stays free of [Unix]; with no probe attached the per-event cost is one
    field load and branch. *)

val create : ?seed:int -> ?sched:sched -> unit -> t
(** A fresh simulator at time 0.  [seed] (default 1) seeds {!rng}; [sched]
    (default [Heap]) picks the pending-event queue. *)

val now : t -> float
(** Current virtual time, in seconds. *)

val rng : t -> Rng.t
(** The simulator's root random stream. *)

val schedule_at : ?kind:int -> t -> time:float -> (unit -> unit) -> handle
(** Fire the callback at absolute virtual [time].  Raises
    [Invalid_argument] if [time] is in the past.  [kind] (default
    {!Kind.other}) tags the event for the profiler {!probe}. *)

val schedule : ?kind:int -> t -> delay:float -> (unit -> unit) -> handle
(** Fire the callback [delay] seconds from {!now} ([delay >= 0]). *)

val reserve : t -> int
(** Take the next normal sequence number and count one pending event,
    without queueing anything yet.  The reservation must later be fired
    through {!schedule_reserved} with that sequence number, exactly once.
    Reserving at the instant an event becomes due-to-be-scheduled and
    queueing it later keeps its [(time, seq)] key, {!pending} and
    {!events_processed} exactly as if it had been queued at once — as long
    as it is queued before anything with a later key could fire.  The link
    transmitter uses this to hold a link's in-flight packets in a FIFO
    ring with one queued delivery per link. *)

val schedule_reserved : ?kind:int -> t -> time:float -> seq:int -> (unit -> unit) -> handle
(** Queue the callback under a key taken by {!reserve}.  Consumes no
    sequence number and does not change {!pending}.  Raises
    [Invalid_argument] if [time] is in the past. *)

val schedule_aux : ?kind:int -> t -> time:float -> (unit -> unit) -> handle
(** Fire the callback at absolute virtual [time], drawing from a separate
    {e negative, descending} sequence counter.  Scheduling an auxiliary
    event never consumes a normal sequence number, so a run with read-only
    auxiliary ticks attached is bit-identical to the same run without them
    (unlike {!schedule}, whose sequence-number consumption perturbs later
    ties).  At equal time an auxiliary event fires {e before} every normal
    event — the observation cut "all events < T fired, none at T".  [kind]
    defaults to {!Kind.telemetry}.  The callback must not mutate simulation
    state. *)

val cancel : handle -> unit
(** Marks the event with the cancelled sentinel and releases its pending
    count; the queue discards it lazily when it reaches the front.
    Cancelling an already-fired or cancelled event is a no-op. *)

val cancelled : handle -> bool
(** [true] once the event has been cancelled {e or} has fired. *)

val run : ?until:float -> t -> unit
(** Process events until the heap is empty or virtual time would exceed
    [until].  When stopped by [until], the clock is left at [until]. *)

val step : t -> bool
(** Process exactly one event; [false] when none remain. *)

val stop : t -> unit
(** Makes the current [run] return after the in-flight event completes. *)

val pending : t -> int
(** Number of scheduled (uncancelled) events. *)

val events_processed : t -> int
(** Total number of event actions executed since creation (cancelled events
    are not counted).  Used by benchmarks to report events/second and by
    tests to bound event-loop work. *)

val set_probe : t -> probe option -> unit
(** Attach (or detach with [None]) the event-loop profiler hook.  The probe
    observes only; it cannot change scheduling order, so attaching one
    never perturbs a run's results. *)
