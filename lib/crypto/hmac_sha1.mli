(** HMAC-SHA1 (RFC 2104). *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 20-byte HMAC-SHA1 tag of [msg] under [key].
    Keys longer than the 64-byte SHA-1 block are first hashed, as the RFC
    requires. *)
