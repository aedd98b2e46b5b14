(** A compact TCP for the paper's workload: a client pushes a fixed number
    of bytes to a server and the transfer either completes or aborts.

    Connection establishment and abort behaviour follow the evaluation
    setup of Sec. 5 exactly:
    - SYN timeout fixed at 1 s (no exponential backoff), at most 8
      retransmissions;
    - data transfer aborts when the backed-off RTO would exceed 64 s or
      any single segment has been transmitted 10 times.

    Loss recovery is Reno-style: slow start, congestion avoidance, fast
    retransmit on three duplicate ACKs, go-back-to-one on timeout.

    Transport attachment is by callback: the connection emits
    {!Wire.Tcp_segment.t} values through [tx] and is fed incoming segments
    through {!receive}; the scheme layer (TVA, SIFF, plain IP) turns them
    into packets.  This keeps TCP completely independent of the DoS
    protection scheme under test. *)

type outcome =
  | Completed of { duration : float }
  | Aborted of { reason : string; at : float }

type client
type server

val create_client :
  sim:Sim.t ->
  conn_id:int ->
  transfer_bytes:int ->
  ?mss:int ->
  tx:(Wire.Tcp_segment.t -> unit) ->
  on_complete:(outcome -> unit) ->
  unit ->
  client
(** [mss] defaults to 1000 bytes (the paper's 20 KB transfers are then 20
    segments).  [on_complete] fires exactly once. *)

val start : client -> unit
(** Sends the initial SYN.  Idempotent only before any segment exchange. *)

val client_receive : client -> Wire.Tcp_segment.t -> unit
val client_conn_id : client -> int
val client_bytes_acked : client -> int
val client_finished : client -> bool

val create_server :
  sim:Sim.t ->
  conn_id:int ->
  tx:(Wire.Tcp_segment.t -> unit) ->
  ?on_data:(bytes_in_order:int -> unit) ->
  unit ->
  server
(** Servers are passive: they answer SYN with SYN/ACK and ack data
    cumulatively.  [on_data] reports in-order delivery progress. *)

val server_receive : server -> Wire.Tcp_segment.t -> unit
val server_bytes_received : server -> int
