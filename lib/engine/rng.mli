(** Deterministic pseudo-random numbers (xoshiro256starstar), seeded
    explicitly so every simulation run is reproducible bit-for-bit. *)

type t

val create : seed:int -> t
(** Seeds the generator via SplitMix64 expansion of [seed]. *)

val split : t -> t
(** A statistically independent generator derived from [t]'s stream; used to
    give each traffic source its own stream so adding a source does not
    perturb the arrival pattern of others. *)

val bits64 : t -> int64
val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]; [bound] must be positive. *)

val bool : t -> bool
val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean (Poisson arrivals). *)

val bytes : t -> int -> string
(** [bytes t n] is [n] random bytes (e.g. keys, nonces). *)

val lane : seed:int -> int -> t
(** [lane ~seed i] is member [i]'s deterministic stream under bank seed
    [seed] — bit-identical to lane [i] of [Bank.create ~seed ~n] for any
    [n > i].  Real per-member agents use this to reproduce exactly the
    draws an aggregate sender makes on their behalf. *)

(** A bank of per-member generators in one flat int64 Bigarray, each
    lane's four state words together, instead of a record per member: a
    10^6-member bank is 32 MB of GC-invisible state, and a draw touches
    one 32-byte run.  Lane [i]'s stream equals {!lane} [~seed i]'s. *)
module Bank : sig
  type t

  val create : seed:int -> n:int -> t
  (** Raises [Invalid_argument] unless [n > 0]. *)

  val bits64 : t -> int -> int64
  (** The next draw of lane [i].  Raises [Invalid_argument] unless
      [0 <= i < n]. *)

  val float : t -> int -> float -> float
  (** [float t i bound] is uniform in [\[0, bound)] from lane [i], same
      mapping as the scalar {!float}. *)
end
