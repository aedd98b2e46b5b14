(** Append-only (time, value) series, the output format of the figure
    reproductions (e.g. Fig. 11's transfer-time-vs-time scatter). *)

type t

val create : unit -> t
val add : t -> time:float -> float -> unit
val length : t -> int
val points : t -> (float * float) array
(** In insertion order (we only ever insert in nondecreasing time). *)

val values_in : t -> lo:float -> hi:float -> float list
(** Values with [lo <= time < hi]. *)

val max_value : t -> float
(** [neg_infinity] when empty. *)

val to_csv : t -> string
(** "time,value\n" rows with a header line. *)
