(** A minimal JSON value + serializer (no JSON library is available).
    Emitted JSON is always valid: strings are escaped, and non-finite
    floats serialize as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val number_or_null : float -> t
(** [Null] for NaN/±infinity — the "no data" marker, distinguishable from
    a genuine zero (e.g. {!Workload.Metrics.fraction_completed_opt} when
    nothing was attempted). *)

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val to_string_pretty : t -> string
(** One ["key": value] per line, two-space indent, trailing newline —
    diffable by humans. *)

val parse : string -> (t, string) result
(** Parse the subset of JSON this module emits (numbers written with a
    ['.'], ['e'] or ['E'] become [Float], the rest [Int]; [\u00XX]
    escapes decode, higher code points are rejected).  Round-trips
    everything {!to_string}/{!to_string_pretty} produce — how
    flight-recorder dumps are read back in tests and tooling. *)

val find : t -> string list -> t option
(** [find v [k1; k2; ...]] is the value under key [k1], then [k2], ... of
    nested objects; [None] when a key is missing or a step is not an
    object.  [find v []] is [Some v]. *)

val number : t -> float option
(** An [Int] or [Float] as a float; [None] for any other value ([Null]
    included). *)
