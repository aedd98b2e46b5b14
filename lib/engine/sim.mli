(** The discrete-event simulation core.

    A simulator owns a virtual clock and a pending-event queue.  Events
    fire in nondecreasing time order; ties break by scheduling order, which
    makes runs deterministic.  All network components (links, hosts,
    routers) hang their behaviour off this module.

    One-off events sit in one binary min-heap keyed by [(time, seq)] whose
    sift loops move only unboxed keys; a scheduled event allocates no
    record.  Plain scheduling returns [unit]; only {!timer}/{!timer_at}
    return a cancellable {!handle}.

    A constant-delay {!lane} is a FIFO of events that each fire exactly
    the lane's delay after they were scheduled, under the key {!schedule}
    would give them.  Lanes stay out of the event heap: the non-empty
    lanes sit in a second binary heap keyed by their heads, and each
    event the loop fires whichever of the two roots comes first by
    [(time, seq)].  An event on a lane costs a ring write, a ring read and
    O(log non-empty lanes) sift steps, independent of how many one-off
    events are pending.  [Net] is the client: a link delivers in FIFO
    order after a constant delay, and a packet's transmit completes a
    constant serialization time after it starts, so [Net] makes one lane
    per distinct link delay and one per distinct serialization time. *)

type t

type sched = Heap | Wheel
(** Inert: there is one queue.  Kept only because [bench/e2e] reads
    {!sched}, {!sched_to_string} and [create ?sched]; [Wheel] selects
    nothing. *)

val sched : t -> sched
(** Always [Heap]. *)

val sched_to_string : sched -> string

type handle
(** A cancellable event from {!timer}/{!timer_at} (e.g. retransmit timers):
    its simulator, queue slot and sequence number.  It holds no closure,
    so a handle kept after firing pins nothing. *)

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
(** A fresh simulator at time 0.  [seed] (default 1) seeds {!rng};
    [sched] is ignored (see {!sched}). *)

val now : t -> float
(** Current virtual time, in seconds. *)

val rng : t -> Rng.t
(** The simulator's root random stream. *)

val schedule_at : ?kind:int -> t -> time:float -> (unit -> unit) -> unit
(** Fire the callback at absolute virtual [time].  Raises
    [Invalid_argument] if [time] is in the past or NaN.  [kind] (default
    {!Kind.other}) tags the event for the profiler {!probe}. *)

val schedule : ?kind:int -> t -> delay:float -> (unit -> unit) -> unit
(** Fire the callback [delay] seconds from {!now}.  Raises
    [Invalid_argument] unless [delay >= 0] (so also on NaN). *)

val timer_at : ?kind:int -> t -> time:float -> (unit -> unit) -> handle
(** {!schedule_at} that returns a handle for {!cancel}. *)

val timer : ?kind:int -> t -> delay:float -> (unit -> unit) -> handle
(** {!schedule} that returns a handle for {!cancel}. *)

type lane
(** A constant-delay FIFO of events on one simulator. *)

val lane : ?kind:int -> t -> delay:float -> lane
(** A new, empty lane whose events fire [delay] seconds after they are
    scheduled.  Raises [Invalid_argument] unless [delay >= 0] (so also on
    NaN).  [kind] (default {!Kind.other}) tags all its events for the
    profiler {!probe}.  A lane lives as long as its simulator; only
    non-empty lanes cost anything at fire time. *)

val lane_delay : lane -> float
(** The delay the lane was made with. *)

val lane_count : t -> int
(** The number of lanes made on this simulator. *)

val lane_schedule : lane -> (unit -> unit) -> unit
(** [lane_schedule l f] is [schedule ~delay:(lane_delay l) f] of [l]'s
    simulator: it takes the next sequence number, so the event's
    [(time, seq)] key, {!pending} and {!events_processed} are exactly
    what {!schedule} would give, and events on a lane interleave with
    every other event in key order.  Since {!now} never decreases, a
    lane's keys are nondecreasing, so the event is a ring write and never
    touches the event heap; a lane that was empty enters the lane heap. *)

val schedule_aux : ?kind:int -> t -> time:float -> (unit -> unit) -> unit
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
(** Marks the event cancelled, drops its callback and releases its pending
    count; the queue discards it lazily when it reaches the front.
    Cancelling an already-fired or cancelled event is a no-op. *)

val cancelled : handle -> bool
(** [true] once the event has been cancelled {e or} has fired. *)

val run : ?until:float -> t -> unit
(** Process events until the queue is empty or virtual time would exceed
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
