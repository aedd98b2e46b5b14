(** Traffic-rate estimation.

    Pushback's aggregate detection and the TVA router's accounting both need
    arrival-rate estimates.  [Ewma] is the standard exponentially weighted
    estimator (TSW-style). *)

module Ewma : sig
  type t

  val create : tau:float -> t
  (** [tau] is the averaging time constant in seconds. *)

  val observe : t -> now:float -> bytes:int -> unit
  (** Record an arrival of [bytes] at virtual time [now]. *)

  val rate : t -> now:float -> float
  (** Estimated rate in bytes/second, decayed to [now]. *)
end
