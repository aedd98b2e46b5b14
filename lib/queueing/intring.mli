(** Growable ring buffer of ints — DRR's round-robin ring of class keys.
    Steady-state push/pop allocate nothing. *)

type t

val create : unit -> t
val is_empty : t -> bool

val push : t -> int -> unit
(** Appends at the tail, doubling the backing array when full. *)

exception Empty

val pop : t -> int
(** Removes and returns the head key.  Raises {!Empty} when empty (check
    {!is_empty} first on hot paths). *)
