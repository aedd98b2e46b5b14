(** The software-router fast path of the paper's Sec. 6 prototype, set up
    so each of Table 1's packet types can be exercised in isolation.

    The prototype used the kernel crypto API's AES for pre-capability
    hashes and SHA-1 for capability hashes; this module runs the same
    constructions from {!Crypto}.  The five operations perform exactly the
    work the paper counts:

    - request: one pre-capability hash (AES);
    - regular with a cached entry: flow lookup, nonce compare, byte/ttl
      update — no crypto;
    - regular without a cached entry: two hashes (recompute pre-capability,
      recompute capability) plus entry creation;
    - renewal with a cached entry: fast-path checks plus one fresh
      pre-capability hash;
    - renewal without a cached entry: two validation hashes plus one fresh
      pre-capability hash.

    Each operation is packaged as a closure whose per-call side effects are
    reset internally, so benchmark harnesses can run them millions of
    times. *)

type t

type op =
  | Legacy_forward
  | Request
  | Regular_cached
  | Regular_uncached
  | Renewal_cached
  | Renewal_uncached

val all_ops : op list
val op_name : op -> string

val create :
  ?hash_precap:(module Crypto.Keyed_hash.S) ->
  ?hash_cap:(module Crypto.Keyed_hash.S) ->
  unit ->
  t
(** Defaults: AES-hash for pre-capabilities and HMAC-SHA1 for capabilities,
    the prototype's pairing. *)

val run : t -> op -> unit
(** Execute one packet's worth of processing for [op]. *)

val runner : t -> op -> unit -> unit
(** [runner t op] is a closure for benchmark harnesses. *)

val calibrate : ?iters:int -> t -> op -> float
(** Rough wall-clock nanoseconds per operation (for feeding the Fig. 12
    model outside the Bechamel harness). *)
