(** SHA-1 (RFC 3174), implemented from scratch.

    Used as the paper's second hash function, i.e. the one that turns a
    pre-capability plus [N] and [T] into a full capability (Section 6 of the
    paper uses SHA-1 for this role in the Linux prototype). *)

type ctx
(** Streaming hash context. *)

val init : unit -> ctx

val feed : ctx -> string -> unit
(** [feed ctx s] absorbs all bytes of [s]. *)

val get : ctx -> string
(** [get ctx] finalizes a copy of [ctx] and returns the 20-byte digest.
    The context remains usable for further [feed]s. *)

val digest : string -> string
(** One-shot hash: 20-byte digest of the argument. *)
