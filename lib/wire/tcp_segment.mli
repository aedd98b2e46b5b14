(** TCP segment headers as carried by simulator packets.  Only the fields
    the simplified TCP state machine needs: one flag kind per segment,
    byte-granularity sequence/ack numbers, and a connection id standing in
    for the port pair. *)

type flags =
  | Syn
  | Syn_ack
  | Ack (* pure ack or data (payload > 0) in the established state *)
  | Fin
  | Rst

type t = {
  conn : int; (* connection identifier (the "port pair") *)
  flags : flags;
  seq : int; (* first payload byte's sequence number *)
  ack : int; (* next byte expected from the peer *)
  payload : int; (* payload length in bytes *)
}

val wire_size : t -> int
(** The 40-byte TCP/IP header plus [payload]. *)
