(** AES-based hashing in the Matyas–Meyer–Oseas (MMO) mode, the classic way
    to build a hash from a block cipher (Handbook of Applied Cryptography,
    ch. 9 — the reference the paper cites for its hash functions).

    The paper's prototype computes pre-capabilities with an "AES-hash"; this
    module provides the same construction:

      H_0   = IV
      H_i   = E_{g(H_{i-1})}(m_i) xor m_i
      out   = H_n                      (128 bits)

    with Merkle–Damgård strengthening (0x80 padding plus a 64-bit length
    block). *)

val digest : string -> string
(** [digest msg] is the 16-byte MMO hash of [msg]. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is a keyed hash: the MMO digest of [key || msg] with the
    key block also mixed into the IV.  [key] may be any length; 16 bytes is
    canonical. *)
