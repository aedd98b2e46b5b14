(** SIFF header state (Yaar et al., the paper's closest comparator).

    SIFF embeds a few marking bits per router into the IP header.  EXP
    (explorer) packets collect markings; the receiver returns the collected
    marking to the sender, whose DTA (data) packets then carry it for
    routers to re-verify.  We model the marking as an association from
    router id to that router's marking bits, which preserves the semantics
    (per-router verification, brute-forceable 2-bit space, expiry on secret
    rotation) without fixing a bit-packing. *)

type flavor =
  | Exp (** explorer / request: forwarded as legacy priority in SIFF *)
  | Dta (** data packet carrying a marking to verify *)

type t = {
  flavor : flavor;
  mutable markings : (int * int) list;
      (* router id -> marking bits.  A DTA packet carries them in path
         order; an EXP packet collects them most recent router first, so
         each router's {!add_marking} is one cons.  {!path_markings} reads
         either in path order. *)
  mutable returned : (int * int) list option;
      (* markings the receiver echoes back to authorize the sender's
         forward direction (SIFF's handshake piggyback) *)
}

val exp_packet : unit -> t
val dta : markings:(int * int) list -> t

val copy : t -> t
(** A marking whose mutable fields are independent of the original (the
    association lists themselves are immutable and shared). *)

val marking_of : t -> router:int -> int option
(** The bits of [router]'s first entry in path order, if any. *)

val path_markings : t -> (int * int) list
(** The markings in path order: what the destination echoes back to an
    EXP packet's sender, for its DTA packets to carry. *)

val add_marking : t -> router:int -> bits:int -> unit
(** Adds [router]'s entry after every earlier one in path order (used by
    routers on EXP packets, whose list is most recent first). *)

val bits_per_router : int
(** 2, as the TVA paper notes when comparing against SIFF. *)

val wire_size : t -> int
(** SIFF steals bits from existing IP fields, so its shim adds no bytes;
    we charge 4 bytes for the flags/nonce word SIFF repurposes. *)
