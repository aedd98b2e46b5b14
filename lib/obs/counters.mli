(** Preallocated per-router/interface counters over the {!Event} taxonomy.

    The zero-overhead contract: {!incr} is two unsafe operations on a
    preallocated int array — no allocation, no bounds check, no branch on
    an enable flag.  Code that may run unobserved holds the shared {!nop}
    instance, whose array absorbs increments and is never read; the
    datapath therefore never tests whether observability is on. *)

type t

val nop : t
(** The shared sink for disabled observability.  Never read its counts. *)

val create : name:string -> unit -> t
val is_nop : t -> bool
val name : t -> string

val incr : t -> Event.t -> unit
(** O(1), allocation-free, unsafe-indexed. *)

val add : t -> Event.t -> int -> unit
val get : t -> Event.t -> int

(** Raw cell read by [Event.to_int] index — allocation-free, for the
    telemetry tick path, which resolves the index once at registration. *)
val cell : t -> int -> int

val reset : t -> unit
val total : t -> int

(** {1 Registry}

    One registry per simulation run; instances are returned in creation
    order so every rendering/merge derived from a snapshot is
    deterministic. *)

type registry

val registry : unit -> registry
val register : registry -> name:string -> t
val registered : registry -> t list
val find : registry -> name:string -> t option
(** A linear scan by name over every registered instance: a set-up-time
    lookup, never for a per-event path.  Resolve an instance once and
    hold it (as [Experiment.Harness.counters_for] does, by node id). *)

(** {1 Snapshots}

    Plain data safe to move across {!Pool} worker domains and to merge
    across sweep cells. *)

type snap = (string * int array) list
(** Counter arrays keyed by instance name, indexed by [Event.to_int]. *)

val snapshot : t -> string * int array
val snapshot_all : registry -> snap

val merge_snaps : snap -> snap -> snap
(** Pointwise sum by name; names only in the second operand append in
    order, so a left fold over sweep results in submission order yields a
    deterministic aggregate. *)
