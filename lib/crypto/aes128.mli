(** AES-128 block cipher (FIPS-197), encryption direction only.

    The paper's Linux prototype computes pre-capabilities with an "AES-hash";
    we provide the block cipher here and the Matyas–Meyer–Oseas hashing mode
    on top of it in {!Aes_hash}.  Decryption is unnecessary for hashing and
    is deliberately not implemented. *)

type key
(** An expanded 128-bit key schedule (11 round keys). *)

val expand_key : string -> key
(** [expand_key k] expands a 16-byte key.  Raises [Invalid_argument] if
    [String.length k <> 16]. *)

val encrypt_block : key -> bytes -> src_off:int -> bytes -> dst_off:int -> unit
(** [encrypt_block key src ~src_off dst ~dst_off] encrypts the 16-byte block
    at [src_off] into [dst] at [dst_off].  [src] and [dst] may be the same
    buffer with the same offset. *)

val encrypt : key -> string -> string
(** Convenience one-shot encryption of a single 16-byte block. *)
