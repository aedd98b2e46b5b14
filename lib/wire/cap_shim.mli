(** The TVA capability header (paper Fig. 5), carried as a shim between IP
    and transport on every non-legacy packet.

    Two representations live here: the structured form that the simulator
    manipulates directly, and a bit-exact wire codec used to account for
    header bytes and to demonstrate the format round-trips.  Field widths
    follow Fig. 5: 4-bit version and type, 8-bit upper protocol, 16-bit path
    identifiers, 64-bit capabilities (8-bit timestamp + 56-bit hash), 48-bit
    flow nonce, 10-bit N in KB and 6-bit T in seconds. *)

type cap = { ts : int; hash : int64 }
(** One per-router capability (or pre-capability): [ts] is the router's
    8-bit timestamp, [hash] the 56-bit keyed hash. *)

type return_info =
  | Demotion_notice
      (** The destination echoes a demotion so the sender re-requests. *)
  | Grant of { n_kb : int; t_sec : int; caps : cap list }
      (** Capabilities granted by the destination for the reverse direction:
          up to [n_kb] KB within [t_sec] seconds. *)

type request = {
  mutable rev_path_ids : int list;
      (** Path identifiers, newest first.  Filled in hop by hop:
          trust-boundary routers push a 16-bit identifier.  Use
          {!path_ids} / {!push_path_id} rather than touching the reversed
          list directly. *)
  mutable rev_precaps : cap list;
      (** Pre-capabilities, newest first — every capability router pushes
          one.  Reverse accumulation makes the per-hop append O(1); use
          {!precaps} / {!push_precap}. *)
}

type regular = {
  nonce : int64;
  caps : cap array;
      (** An array so the router's capability ptr indexes in O(1);
          [\[||\]] is the common nonce-only format. *)
  n_kb : int;
  t_sec : int;
  renewal : bool;
  mutable rev_fresh_precaps : cap list;
      (** Only on renewal packets: the fresh pre-capabilities routers
          mint en route (paper Sec. 4.3: "a fresh pre-capability is
          minted and placed in the packet"), newest first.  The paper does
          not pin a bit layout for these; we append them after the old
          capability list with their own count byte.  Use
          {!fresh_precaps} / {!push_fresh_precap}. *)
}

type kind = Request of request | Regular of regular

val path_ids : request -> int list
(** In path order (oldest hop first). *)

val precaps : request -> cap list
(** In path order, matching the order routers were traversed — the
    destination converts these positionally into the capability list. *)

val precap_count : request -> int

val push_path_id : request -> int -> unit
(** O(1) append at the path's tail. *)

val push_precap : request -> cap -> unit

val fresh_precaps : regular -> cap list
(** In path order. *)

val push_fresh_precap : regular -> cap -> unit

type t = {
  mutable kind : kind;
  mutable demoted : bool;
  mutable return_info : return_info option;
  mutable ptr : int;
      (** Fig. 5's "capability ptr": index of the capability belonging to
          the next router on the path.  Senders emit 0; each capability
          router that validates from the list increments it. *)
}

val request : unit -> t
(** A fresh, empty request shim as a sender emits it. *)

val regular :
  ?fresh_precaps:cap list ->
  nonce:int64 ->
  caps:cap list ->
  n_kb:int ->
  t_sec:int ->
  renewal:bool ->
  unit ->
  t

val copy : t -> t
(** A shim whose mutable state (kind record, capability array, pointer) is
    independent of the original, so a duplicated packet's hop-by-hop
    mutations do not leak into the other copy.  The immutable list spines
    are shared. *)

val wire_size : t -> int
(** The encoded size in bytes (what links charge for the shim). *)

val encode : t -> string
(** Bit-exact encoding.  Raises [Invalid_argument] if a field is out of its
    Fig. 5 range (e.g. [n_kb >= 1024]). *)

val decode : string -> (t, string) result
(** Inverse of [encode]; [Error] describes a malformed header. *)
