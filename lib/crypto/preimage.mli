(** Allocation-free writers for MAC preimages.

    Per-packet MACs over text-and-binary preimages (SIFF markings, NetFence
    feedback tokens) write their preimage into a scratch buffer the router
    owns and hash it with {!Siphash.mac_bytes}, instead of building a fresh
    string per packet.  Each writer stores at [pos] and returns the
    position just past its last byte; it raises [Invalid_argument] if the
    buffer is too short. *)

val max_decimal_len : int
(** 20: the longest output of {!put_decimal} (a sign and 19 digits). *)

val put_string : Bytes.t -> int -> string -> int
val put_char : Bytes.t -> int -> char -> int

val put_decimal : Bytes.t -> int -> int -> int
(** The decimal digits of an int: exactly the bytes [Printf.sprintf "%d"]
    prints, including the sign of negatives and [min_int]. *)

val put_be32 : Bytes.t -> int -> int -> int
(** The low 32 bits, big-endian: the 4-byte wire form of an address. *)
