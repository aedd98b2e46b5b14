(** Packet-lifecycle trace ring: a fixed-capacity struct-of-arrays buffer
    of (time, node, event, src, dst, size) records with 1-in-k sampling and
    per-event-kind filters.

    Recording allocates nothing (six unsafe stores into preallocated flat
    arrays); once full the ring overwrites oldest-first.  {!nop} is the
    disabled instance: {!record} on it is a load and a branch. *)

type t

val nop : t
(** Recording into [nop] is a no-op (one flag test). *)

val create : ?capacity:int -> ?sample:int -> ?filter:(Event.t -> bool) -> unit -> t
(** [capacity] (default 65536) is rounded up to a power of two.  [sample]
    keeps 1 record in every [sample] filtered offers (default 1 = all).
    [filter] selects which event kinds are recorded (default all).  Raises
    [Invalid_argument] on nonpositive capacity or sample. *)

val is_nop : t -> bool
val capacity : t -> int

val record :
  t -> time:float -> node:int -> event:Event.t -> src:int -> dst:int -> size:int -> unit
(** Allocation-free.  Filter first, then the sampling counter: only
    filtered offers advance the 1-in-k phase. *)

val seen : t -> int
(** Offers that passed the filter (sampled or not). *)

val written : t -> int
(** Records actually stored since creation (monotonic; the ring holds the
    last [capacity] of them). *)

val length : t -> int
(** Records currently held, [min written capacity]. *)

val iter :
  t ->
  (time:float -> node:int -> event:int -> src:int -> dst:int -> size:int -> unit) ->
  unit
(** Oldest surviving record first.  [event] is an [Event.to_int] code. *)

val to_jsonl : ?node_name:(int -> string) -> t -> Buffer.t -> unit
(** One JSON object per line:
    [{"t":…,"node":…,"event":…,"src":…,"dst":…,"size":…}]. *)
