(** Online incident detection over {!Timeseries} intervals (DESIGN.md §15).

    A rule watches one channel through an EWMA with hysteresis: the
    smoothed signal must hold at or above [on] for [up] consecutive
    windows to open an incident and at or below [off] for [down]
    consecutive windows to clear it.  The gap between the two thresholds
    plus the consecutive-window counts is what prevents flapping — a
    signal oscillating between them yields one incident, not one per
    oscillation (property-tested).  Stepping allocates nothing except the
    incident record at onset. *)

type rule = {
  r_name : string;
  r_chan : string;
  r_signal : [ `Rate | `Value ];
  r_on : float;
  r_off : float;
  r_up : int;
  r_down : int;
  r_alpha : float;
}

val rule :
  ?signal:[ `Rate | `Value ] ->
  ?up:int ->
  ?down:int ->
  ?alpha:float ->
  name:string ->
  chan:string ->
  on:float ->
  off:float ->
  unit ->
  rule
(** Defaults: [signal = `Rate], [up = 1], [down = 2], [alpha = 0.5].
    Raises [Invalid_argument] unless [off <= on], [up, down >= 1] and
    [alpha] is in (0, 1]. *)

type incident = {
  in_rule : string;
  in_onset : float;  (** sim time of the opening window *)
  mutable in_clear : float;  (** NaN while open; run-end time if finalized open *)
  mutable in_peak : float;  (** extreme raw signal while active *)
  mutable in_peak_at : float;
  mutable in_open : bool;  (** never cleared before {!finish} *)
}

type t

val create : rules:rule list -> Timeseries.t -> t
(** Resolves each rule's channel; raises [Invalid_argument] on an unknown
    channel name. *)

val on_onset : t -> (incident -> unit) -> unit
(** Hook fired at each incident onset (the flight recorder's trigger). *)

val step : t -> unit
(** Consume the newest window; call once after every [Timeseries.tick]. *)

val finish : t -> time:float -> unit
(** Close incidents still active at run end ([in_clear = time],
    [in_open] stays true). *)

val incidents : t -> incident list
(** Onset order. *)

val engage_recover : incident list -> (float * float * bool) option
(** [(first onset, last clear - first onset, every incident cleared)] —
    the chaos harness's measured engagement and recovery.  An incident
    {!finish} closed at run end counts as not cleared, and its clear is
    the run end, so the span is then a floor.  A still-active incident's
    NaN clear makes the span NaN.  [None] without incidents. *)

val incident_json : incident -> Export.t
(** The keys [rule], [onset], [clear], [peak], [peak_at] and [open]; a
    NaN clear or peak is [null]. *)

val to_json : t -> Export.t
