(** SipHash-2-4 (Aumasson–Bernstein), a fast keyed hash with a 128-bit key
    and 64-bit output.

    The simulator validates millions of capabilities per run, so by default
    it binds capabilities with SipHash rather than the heavier AES-hash /
    SHA-1 pair used for the Table 1 prototype benchmarks.  Both sit behind
    the {!Keyed_hash} interface. *)

val mac : key:string -> string -> int64
(** [mac ~key msg] is the 64-bit SipHash-2-4 tag of [msg].  The state
    stays in unboxed locals, so a call allocates only its boxed result.
    Raises [Invalid_argument] if [key] is not 16 bytes. *)

val mac_bytes : key:string -> Bytes.t -> len:int -> int64
(** [mac_bytes ~key buf ~len] is [mac ~key] of the first [len] bytes of
    [buf], without copying them out.  This is the entry point for
    per-packet preimages of varying width: the caller writes the preimage
    into a scratch buffer it owns and reuses, and the call allocates only
    its boxed result.  Raises [Invalid_argument] if [key] is not 16 bytes
    or [len] is outside [0 .. Bytes.length buf]. *)

val mac_string : key:string -> string -> string
(** Same tag rendered as 8 little-endian bytes. *)

val mac_short : key:string -> len:int -> w0:int64 -> tail:int64 -> int64
(** [mac_short ~key ~len ~w0 ~tail] is [mac ~key msg] for a message of
    [len] bytes (8 to 15) whose first 8 bytes, loaded little-endian, are
    [w0] and whose remaining [len - 8] bytes, loaded little-endian with
    upper bytes zero, are [tail].  This is the per-packet entry point: the
    caller packs the preimage into words directly and no string or buffer
    is built.  Raises [Invalid_argument] outside the 8..15 range or if
    [key] is not 16 bytes. *)

val mac_short_k : k0:int64 -> k1:int64 -> len:int -> w0:int64 -> tail:int64 -> int64
(** {!mac_short} with the key already loaded into its two little-endian
    words (see {!key_words}).  Loading the key is most of {!mac_short}'s
    cost, so per-epoch callers hoist it and hit this entry point per
    packet. *)

val key_words : string -> int64 * int64
(** The two little-endian 64-bit words of a 16-byte key, for
    {!mac_short_k}.  Raises [Invalid_argument] on any other length. *)

val digest_size : int
(** 8 bytes. *)
