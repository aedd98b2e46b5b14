(** Pre-capability and capability construction and validation (paper
    Fig. 3 and Secs. 3.4–3.5).

    A router mints a pre-capability as

      [ts (8 bits) | hash(src, dst, ts, router secret) (56 bits)]

    and the destination folds its grant into a full capability

      [ts (8 bits) | hash(pre-capability, N, T) (56 bits)]

    Routers validate with exactly two hash computations: recompute the
    pre-capability from the packet's addresses and their own secret (chosen
    by the timestamp's high bit), then recompute the capability hash with
    the packet's N and T.  Expiry is checked on the router's modulo-256
    clock, which is why T must fit in half the clock period. *)

type keyed = (module Crypto.Keyed_hash.S)

val mint_precap :
  hash:keyed ->
  cache:Crypto.Keyed_hash.prep_cache ->
  secret:Crypto.Secret.t ->
  now:float ->
  src:Wire.Addr.t ->
  dst:Wire.Addr.t ->
  Wire.Cap_shim.cap
(** The router's per-packet mint.  [cache] memoizes the per-epoch key
    preparation; it must serve [hash] alone. *)

val cap_of_precap : hash:keyed -> precap:Wire.Cap_shim.cap -> n_kb:int -> t_sec:int -> Wire.Cap_shim.cap
(** The destination-side conversion.  Needs no secret: the binding to the
    router comes from the pre-capability inside the hash. *)

type verdict =
  | Valid
  | Expired  (** the T window has passed on the router clock *)
  | Bad_hash  (** forged, stolen onto another path, or secret retired *)

val validate :
  hash:keyed ->
  cache:Crypto.Keyed_hash.prep_cache ->
  secret:Crypto.Secret.t ->
  now:float ->
  src:Wire.Addr.t ->
  dst:Wire.Addr.t ->
  n_kb:int ->
  t_sec:int ->
  Wire.Cap_shim.cap ->
  verdict
(** The router's per-packet check: two hash computations, with the epoch
    secrets and the public capability key prepared once through [cache].
    With {!Crypto.Keyed_hash.Prototype} the two steps use the prototype's
    two hash functions. *)

val expired : now:float -> ts:int -> t_sec:int -> bool
(** The modulo-clock expiry test alone (used for cached entries, where the
    hash was checked at insertion). *)

val pp_verdict : Format.formatter -> verdict -> unit
