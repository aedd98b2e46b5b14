(** Slot arithmetic for the per-router MAC memos of SIFF markings and
    NetFence tokens.

    A memo is a direct-mapped table of {!size} entries, one per router
    (never global: [Pool] runs simulations on several domains), allocated
    on the router's first packet.  An entry stores every input of the MAC
    it caches beside the result, and a lookup compares all of them, so a
    hit returns exactly what the MAC would compute and a collision is just
    a miss that overwrites the slot. *)

val size : int
(** 256 entries. *)

val slot : int -> int -> int -> int
(** [slot a b c] in [\[0, size)]: a multiplicative hash of three key
    fields. *)
