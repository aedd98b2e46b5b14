(** Online summary statistics (Welford's algorithm): numerically stable
    mean/variance without storing samples. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** 0 when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0 with fewer than two samples. *)

val min : t -> float
(** [infinity] when empty. *)

val max : t -> float
(** [neg_infinity] when empty. *)

val sum : t -> float
val merge : t -> t -> t
(** Combine two summaries as if all samples were added to one. *)
