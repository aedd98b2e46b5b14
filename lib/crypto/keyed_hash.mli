(** A common interface over the keyed hashes used to bind capabilities.

    TVA routers need two keyed-hash roles (Fig. 3 of the paper): one that
    mints pre-capabilities from (src, dst, timestamp, router secret), and
    one that folds (pre-capability, N, T) into a full capability.  The
    prototype used AES-hash and SHA-1 for these ({!Prototype}); the
    simulator defaults to SipHash for speed.  Implementations are
    interchangeable through this signature. *)

type prepared
(** A key preprocessed for the per-packet [_p] entry points (for SipHash:
    normalized and split into its two 64-bit words, which is most of the
    per-call setup cost).  Prepare once per key via {!S.prepare} or a
    {!prep_cache}. *)

module type S = sig
  val name : string

  val prepare : string -> prepared
  (** Preprocess a key for the [_p] entry points; call once per key, not
      per packet. *)

  val mac56_precap_p : prep:prepared -> src:int -> dst:int -> ts:int -> int
  (** The pre-capability tag (56 bits, so never negative) against a
      prepared key: the tag of {!precap_preimage}, computed from the
      fields directly.  An int, not an [int64], so a caller through a
      first-class module gets it unboxed: {!Fast} allocates nothing. *)

  val mac56_cap_p :
    prep:prepared -> precap_ts:int -> precap_hash:int -> n_kb:int -> t_sec:int -> int
  (** The capability tag over (pre-capability, N, T) against a prepared
      key: the tag of {!cap_preimage}, as an int. *)
end

module type Reference = sig
  include S

  val mac56 : key:string -> string -> int64
  (** [mac56 ~key msg] is a 56-bit tag (top 8 bits clear) over any
      message: [mac56_precap_p]/[mac56_cap_p] must equal it (as an int) on
      the preimage strings. *)
end

type prep_cache
(** A three-slot memo from key strings (by physical identity) to their
    prepared form — sized to the live set of a validating router: current
    epoch secret, previous epoch secret, public capability key.  A cache
    serves one hash module: prepared forms differ between modules. *)

val prep_cache : unit -> prep_cache

val prepared_of : (module S) -> prep_cache -> string -> prepared
(** The prepared form of a key, reusing a cache slot when the same string
    was prepared recently. *)

val precap_preimage : src:int -> dst:int -> ts:int -> string
(** The canonical 9-byte pre-capability preimage:
    src (4 bytes BE) | dst (4 bytes BE) | ts (1 byte).  The reference the
    direct entry points must agree with. *)

val cap_preimage : precap_ts:int -> precap_hash:int -> n_kb:int -> t_sec:int -> string
(** The canonical 11-byte capability preimage:
    ts (1) | pre-capability hash (7 bytes BE) | N (2 bytes, 10 used bits) |
    T (1 byte, 6 used bits). *)

module Fast : sig
  include Reference

  val mac56_bytes : key:string -> Bytes.t -> len:int -> int64
  (** [mac56 ~key] of the first [len] bytes of a caller-owned buffer: the
      entry point for preimages a router writes into a reused scratch
      buffer (see {!Preimage}).  Allocates only the boxed result. *)
end
(** SipHash-2-4 based; the simulation default.  Its fixed-preimage entry
    points pack the fields into SipHash words directly and do not
    allocate. *)

module Aes : Reference
(** AES-hash (MMO) based, as the prototype uses for pre-capabilities. *)

module Sha : Reference
(** HMAC-SHA1 based, as the prototype uses for full capabilities. *)

module Prototype : S
(** The prototype's pairing (paper Sec. 6): {!Aes}'s pre-capability entry
    point and {!Sha}'s capability entry point. *)
