(** Rotating router secrets (paper Section 3.4).

    Each router stamps pre-capabilities with an 8-bit timestamp from a
    modulo-256-second clock and a hash keyed by a slowly changing secret.
    The secret changes at {e twice} the rate of timestamp rollover, i.e.
    every 128 seconds, and the router only accepts the current or the
    previous secret.  The high-order bit of the timestamp tells the
    validator which of the two to try, so validation needs exactly one hash
    even across a rotation. *)

type t

val create : master:string -> t
(** [create ~master] derives all epoch secrets deterministically from
    [master], so that a router restarted with the same master key behaves
    identically (and tests are reproducible). *)

val rollover_period : float
(** 256 s: the timestamp clock period. *)

val rotation_period : float
(** 128 s: how often the secret changes (twice per rollover). *)

val timestamp : now:float -> int
(** The 8-bit router timestamp for wall-clock [now] (seconds). *)

val issuing_secret : t -> now:float -> string
(** The secret a router uses to mint a pre-capability at time [now]. *)

val validating_secret : t -> now:float -> ts:int -> string
(** [validating_secret t ~now ~ts] is the secret to check a capability whose
    embedded timestamp is [ts], given the validator's clock [now] — selected
    by the high bit of [ts] as the paper describes.  [""] (never a secret:
    secrets are 16 bytes) if the implied epoch is neither current nor
    previous, which happens only in epoch 0 for a high-bit timestamp.  A
    capability older than one epoch is caught by its hash instead: its
    parity maps to a newer secret. *)

val epoch : now:float -> int
(** The rotation epoch index [floor (now / 128)]. *)
