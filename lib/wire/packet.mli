(** Simulator packets.

    A packet couples addressing and a transport body with the optional
    protocol shims (TVA capability header, SIFF marking).  Its wire size is
    always computed from content, so a router that appends a pre-capability
    automatically makes the packet cost more link time — the overhead the
    paper accounts as "40 TCP/IP bytes plus 20 capability bytes". *)

type body =
  | Raw of int (** opaque flood/legacy payload; the int is total wire bytes *)
  | Tcp of Tcp_segment.t

type t = {
  id : int; (** unique per process, for tracing *)
  src : Addr.t;
  dst : Addr.t;
  body : body;
  mutable shim : Cap_shim.t option; (** TVA capability header *)
  mutable siff : Siff_marking.t option;
  mutable nf : Nf_feedback.t option; (** NetFence congestion feedback *)
  mutable hops : int; (** decremented per router hop; dropped at zero *)
}

val make :
  ?shim:Cap_shim.t ->
  ?siff:Siff_marking.t ->
  ?nf:Nf_feedback.t ->
  src:Addr.t ->
  dst:Addr.t ->
  body ->
  t

val size : t -> int
(** Current wire size in bytes. *)

val copy : t -> t
(** A physically distinct packet with the same content: fresh [id], deep
    copies of the mutable shims, so the fault layer's duplication delivers
    two packets whose hop counts and header mutations evolve
    independently. *)

val flow_key : t -> int
(** A flow is a (source, destination) address pair (paper Sec. 3.5). *)

val flow_key_of : src:Addr.t -> dst:Addr.t -> int
val reverse_flow_key : t -> int
