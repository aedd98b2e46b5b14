(** Big-endian bit-level buffers for the capability header codec (the
    paper's Fig. 5 fields are 4-, 6-, 10-, 16-, 48- and 64-bit wide, so a
    byte-oriented writer is not enough). *)

module Writer : sig
  type t

  val create : unit -> t

  val put : t -> bits:int -> int -> unit
  (** [put w ~bits v] appends the low [bits] (1–62) of nonnegative [v],
      most significant bit first.  Raises [Invalid_argument] if [v] does not
      fit. *)

  val put64 : t -> bits:int -> int64 -> unit
  (** Same for up to 64 bits. *)

  val contents : t -> string
  (** Zero-padded to a whole number of bytes. *)
end

module Reader : sig
  type t

  exception Truncated

  val create : string -> t
  val get : t -> bits:int -> int
  (** Reads 1–62 bits, MSB first.  Raises {!Truncated} past the end. *)

  val get64 : t -> bits:int -> int64
end
