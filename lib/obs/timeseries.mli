(** In-run telemetry: cadence-scheduled snapshots of integer sources into
    preallocated struct-of-arrays rings (DESIGN.md §15).

    Channels are registered before the first tick and then frozen into an
    array; each holds a power-of-two float ring that overwrites
    oldest-first, like {!Trace}.  The tick path is allocation-free: one
    unboxed float store per channel plus an int read of its source.

    Simulator runs drive ticks with {!attach}: a {!Sim.schedule_aux}
    chain, whose negative sequence numbers leave the run bit-identical to
    a telemetry-off run.  Window k is stamped [k *. interval] by
    multiplication, so interval series are identical for any [--jobs]
    value. *)

type source =
  | Cell of Counters.t * int
      (** one counter cell, by [Event.to_int] index (resolve once, at
          registration) *)
  | Cells of Counters.t array * int  (** the same cell summed across instances *)
  | Int_fn of (unit -> int)
      (** any integer probe (queue depth, cache size, events fired); must
          not allocate — it runs on the tick path *)

type mode =
  | Cumulative  (** store the delta since the previous tick; [rate] divides by the interval *)
  | Level  (** store the instantaneous value *)

type t

val create : ?capacity:int -> interval:float -> unit -> t
(** [capacity] (default 4096, rounded up to a power of two) is the number
    of windows each ring retains; [interval] is the tick cadence in
    simulated seconds. *)

val interval : t -> float
val capacity : t -> int

val add : t -> name:string -> mode:mode -> source -> unit
(** Register a channel.  Raises [Invalid_argument] after the first tick
    (the channel set is frozen) or on a duplicate name. *)

val freeze : t -> unit
(** Fix the channel set and baseline cumulative sources.  Idempotent;
    {!tick} and every accessor call it implicitly. *)

val tick : t -> time:float -> unit
(** Record one window at absolute sim time [time].  Allocation-free. *)

val attach : ?on_tick:(unit -> unit) -> t -> Sim.t -> until:float -> unit
(** Drive {!tick} from a read-only auxiliary event chain at
    [k *. interval] for k = 1, 2, ... while [<= until], calling [on_tick]
    after each tick (e.g. {!Detect.step}).  Freezes [t] first, so
    cumulative channels are baselined before the run starts.  [on_tick]
    must not mutate simulation state.  Raises [Invalid_argument] when
    [until] is not finite. *)

(** {1 Accessors} — window index 0 is the oldest surviving window. *)

val written : t -> int
(** Total windows recorded (monotonic; the rings hold the tail). *)

val length : t -> int
val time_at : t -> int -> float
val channels : t -> string list
val chan_index : t -> string -> int option
val chan_name : t -> chan:int -> string
val mode : t -> chan:int -> mode

val value : t -> chan:int -> int -> float
(** The stored figure: a delta for [Cumulative] channels, the level
    otherwise. *)

val rate : t -> chan:int -> int -> float
(** [value / interval] for [Cumulative] channels (a per-second rate);
    [value] unchanged for [Level] channels. *)

val last_value : t -> chan:int -> float
val last_rate : t -> chan:int -> float
val last_time : t -> float

(** {1 Export} *)

val rows : ?last:int -> t -> Export.t list
(** One [Obj] per window, oldest first: [{"t": ..., "<chan>": ...}].
    [last] keeps only the newest [last] windows. *)

val to_json : ?last:int -> t -> Export.t
(** [{interval; channels: [{name; mode}]; windows: rows}]. *)

val to_jsonl : t -> Buffer.t -> unit
val to_csv : t -> Buffer.t -> unit
