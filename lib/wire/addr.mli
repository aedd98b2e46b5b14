(** Network addresses.  The simulator uses small integer addresses of at
    most 32 bits; MAC preimages bind them as 4 big-endian bytes, like an
    IPv4 address. *)

type t = private int

val of_int : int -> t
(** Raises [Invalid_argument] for negatives or values above 2^32 - 1. *)

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val pp : Format.formatter -> t -> unit

val broadcast : t
(** A reserved address never assigned to a node. *)

module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
