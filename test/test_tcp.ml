(* The TCP substrate: handshake, sliding transfer, loss recovery, and the
   paper's establishment/abort parameters.  The transport is a direct
   simulated pipe with injectable loss — no network stack needed. *)

type pipe = { mutable drop_c2s : Wire.Tcp_segment.t -> bool; mutable drop_s2c : Wire.Tcp_segment.t -> bool }

let no_loss _ = false

(* Build a client/server pair joined by a [delay]-latency pipe. *)
let make_pair ?(transfer = 20 * 1024) ?(delay = 0.03) ~sim () =
  let pipe = { drop_c2s = no_loss; drop_s2c = no_loss } in
  let server_ref = ref None in
  let client_ref = ref None in
  let outcome = ref None in
  let client =
    Tcp.Conn.create_client ~sim ~conn_id:1 ~transfer_bytes:transfer
      ~tx:(fun seg ->
        if not (pipe.drop_c2s seg) then
          Sim.schedule sim ~delay (fun () ->
              match !server_ref with Some s -> Tcp.Conn.server_receive s seg | None -> ()))
      ~on_complete:(fun o -> outcome := Some o)
      ()
  in
  client_ref := Some client;
  let server =
    Tcp.Conn.create_server ~sim ~conn_id:1
      ~tx:(fun seg ->
        if not (pipe.drop_s2c seg) then
          Sim.schedule sim ~delay (fun () ->
              match !client_ref with Some c -> Tcp.Conn.client_receive c seg | None -> ()))
      ()
  in
  server_ref := Some server;
  (client, server, pipe, outcome)

let lossless_transfer_completes () =
  let sim = Sim.create () in
  let client, server, _, outcome = make_pair ~sim () in
  Tcp.Conn.start client;
  Sim.run ~until:60. sim;
  (match !outcome with
  | Some (Tcp.Conn.Completed { duration }) ->
      (* 20 KB over a 60 ms RTT with initial window 2: handshake + 4 data
         rounds ≈ 0.3 s. *)
      Alcotest.(check bool) (Printf.sprintf "duration %.3f" duration) true (duration < 0.5)
  | Some (Tcp.Conn.Aborted { reason; _ }) -> Alcotest.failf "aborted: %s" reason
  | None -> Alcotest.fail "never finished");
  Alcotest.(check int) "server got all bytes" (20 * 1024) (Tcp.Conn.server_bytes_received server);
  Alcotest.(check bool) "client done" true (Tcp.Conn.client_finished client)

let completes_with_random_loss () =
  let sim = Sim.create () in
  let client, server, pipe, outcome = make_pair ~sim () in
  let rng = Rng.create ~seed:5 in
  pipe.drop_c2s <- (fun _ -> Rng.float rng 1.0 < 0.1);
  pipe.drop_s2c <- (fun _ -> Rng.float rng 1.0 < 0.1);
  Tcp.Conn.start client;
  Sim.run ~until:120. sim;
  (match !outcome with
  | Some (Tcp.Conn.Completed _) -> ()
  | Some (Tcp.Conn.Aborted { reason; _ }) -> Alcotest.failf "aborted: %s" reason
  | None -> Alcotest.fail "never finished");
  Alcotest.(check int) "all bytes" (20 * 1024) (Tcp.Conn.server_bytes_received server)

let syn_retransmits_on_fixed_timer () =
  let sim = Sim.create () in
  let syn_times = ref [] in
  let client =
    Tcp.Conn.create_client ~sim ~conn_id:1 ~transfer_bytes:1000
      ~tx:(fun seg ->
        if seg.Wire.Tcp_segment.flags = Wire.Tcp_segment.Syn then
          syn_times := Sim.now sim :: !syn_times)
      ~on_complete:(fun _ -> ())
      ()
  in
  Tcp.Conn.start client;
  Sim.run ~until:3.5 sim;
  match List.rev !syn_times with
  | t0 :: t1 :: t2 :: _ ->
      Alcotest.(check (float 1e-9)) "first at 0" 0. t0;
      (* Fixed one-second spacing, no exponential backoff (paper Sec. 5). *)
      Alcotest.(check (float 1e-9)) "second at 1s" 1. t1;
      Alcotest.(check (float 1e-9)) "third at 2s" 2. t2
  | _ -> Alcotest.fail "fewer than 3 SYNs in 3.5s"

let connection_aborts_after_nine_syns () =
  let sim = Sim.create () in
  let syns = ref 0 in
  let outcome = ref None in
  let client =
    Tcp.Conn.create_client ~sim ~conn_id:1 ~transfer_bytes:1000
      ~tx:(fun seg -> if seg.Wire.Tcp_segment.flags = Wire.Tcp_segment.Syn then incr syns)
      ~on_complete:(fun o -> outcome := Some o)
      ()
  in
  Tcp.Conn.start client;
  Sim.run ~until:30. sim;
  Alcotest.(check int) "1 initial + 8 retransmissions" 9 !syns;
  match !outcome with
  | Some (Tcp.Conn.Aborted { reason; at }) ->
      Alcotest.(check string) "reason" "connection establishment failed" reason;
      Alcotest.(check (float 0.01)) "after 9s" 9. at
  | _ -> Alcotest.fail "expected establishment abort"

let aborts_when_segment_transmitted_too_often () =
  let sim = Sim.create () in
  let client, _, pipe, outcome = make_pair ~transfer:2000 ~sim () in
  (* Handshake passes; all data is eaten. *)
  pipe.drop_c2s <- (fun seg -> seg.Wire.Tcp_segment.payload > 0);
  Tcp.Conn.start client;
  Sim.run ~until:400. sim;
  match !outcome with
  | Some (Tcp.Conn.Aborted { reason; _ }) ->
      Alcotest.(check bool)
        ("abort reason: " ^ reason)
        true
        (reason = "segment transmitted too many times"
        || reason = "retransmission timeout exceeded 64s")
  | Some (Tcp.Conn.Completed _) -> Alcotest.fail "completed impossibly"
  | None -> Alcotest.fail "hung"

let duplicate_synack_harmless () =
  let sim = Sim.create () in
  let client, server, pipe, outcome = make_pair ~transfer:3000 ~sim () in
  ignore pipe;
  Tcp.Conn.start client;
  (* Inject a gratuitous duplicate SYN to provoke a duplicate SYN/ACK. *)
  Sim.schedule sim ~delay:0.1 (fun () ->
      Tcp.Conn.server_receive server
        { Wire.Tcp_segment.conn = 1; flags = Wire.Tcp_segment.Syn; seq = 0; ack = 0; payload = 0 });
  Sim.run ~until:30. sim;
  match !outcome with
  | Some (Tcp.Conn.Completed _) -> ()
  | _ -> Alcotest.fail "duplicate SYN/ACK broke the transfer"

let out_of_order_data_is_buffered () =
  let sim = Sim.create () in
  let acks = ref [] in
  let server =
    Tcp.Conn.create_server ~sim ~conn_id:1
      ~tx:(fun seg ->
        if seg.Wire.Tcp_segment.flags = Wire.Tcp_segment.Ack then acks := seg.Wire.Tcp_segment.ack :: !acks)
      ()
  in
  Tcp.Conn.server_receive server
    { Wire.Tcp_segment.conn = 1; flags = Wire.Tcp_segment.Syn; seq = 0; ack = 0; payload = 0 };
  let data seq =
    { Wire.Tcp_segment.conn = 1; flags = Wire.Tcp_segment.Ack; seq; ack = 0; payload = 1000 }
  in
  (* Segment 2 before segment 1. *)
  Tcp.Conn.server_receive server (data 1000);
  Alcotest.(check (option int)) "holds at 0" (Some 0) (List.nth_opt !acks 0);
  Tcp.Conn.server_receive server (data 0);
  Alcotest.(check (option int)) "jumps to 2000" (Some 2000) (List.nth_opt !acks 0);
  Alcotest.(check int) "in-order bytes" 2000 (Tcp.Conn.server_bytes_received server)

let wrong_conn_id_ignored () =
  let sim = Sim.create () in
  let client, _server, _pipe, outcome = make_pair ~transfer:1000 ~sim () in
  Tcp.Conn.start client;
  Tcp.Conn.client_receive client
    { Wire.Tcp_segment.conn = 99; flags = Wire.Tcp_segment.Syn_ack; seq = 0; ack = 0; payload = 0 };
  Alcotest.(check bool) "still unestablished" true (!outcome = None);
  Alcotest.(check int) "no bytes acked" 0 (Tcp.Conn.client_bytes_acked client)

let rst_aborts () =
  let sim = Sim.create () in
  let client, _server, _pipe, outcome = make_pair ~transfer:1000 ~sim () in
  Tcp.Conn.start client;
  Tcp.Conn.client_receive client
    { Wire.Tcp_segment.conn = 1; flags = Wire.Tcp_segment.Rst; seq = 0; ack = 0; payload = 0 };
  match !outcome with
  | Some (Tcp.Conn.Aborted { reason; _ }) -> Alcotest.(check string) "reset" "connection reset" reason
  | _ -> Alcotest.fail "RST ignored"

(* --- Rto -------------------------------------------------------------- *)

let rto_defaults () =
  let r = Tcp.Rto.create () in
  Alcotest.(check (float 1e-9)) "initial" Tcp.Rto.min_rto (Tcp.Rto.base r);
  Tcp.Rto.backoff r;
  Alcotest.(check (float 1e-9)) "doubled" (2. *. Tcp.Rto.min_rto) (Tcp.Rto.current r);
  Tcp.Rto.reset_backoff r;
  Alcotest.(check (float 1e-9)) "reset" Tcp.Rto.min_rto (Tcp.Rto.current r)

let rto_tracks_rtt () =
  let r = Tcp.Rto.create () in
  for _ = 1 to 50 do
    Tcp.Rto.observe r 0.5
  done;
  (* With constant samples, rttvar decays toward 0 and rto -> srtt. *)
  Alcotest.(check bool) "near srtt" true (Tcp.Rto.base r < 0.7 && Tcp.Rto.base r >= 0.5)

let rto_min_floor () =
  let r = Tcp.Rto.create () in
  for _ = 1 to 50 do
    Tcp.Rto.observe r 0.001
  done;
  Alcotest.(check (float 1e-9)) "floored" Tcp.Rto.min_rto (Tcp.Rto.base r)

let rto_variance_raises_timeout () =
  let r = Tcp.Rto.create () in
  List.iter (Tcp.Rto.observe r) [ 0.1; 0.9; 0.1; 0.9; 0.1; 0.9 ];
  Alcotest.(check bool) "variance counted" true (Tcp.Rto.base r > 0.9)

let rto_backoff_is_exponential =
  QCheck.Test.make ~name:"rto: n backoffs multiply by 2^n" ~count:20
    QCheck.(int_range 0 10)
    (fun n ->
      let r = Tcp.Rto.create () in
      for _ = 1 to n do
        Tcp.Rto.backoff r
      done;
      Float.abs (Tcp.Rto.current r -. (Tcp.Rto.base r *. (2. ** float_of_int n))) < 1e-9)

let suite =
  [
    Alcotest.test_case "lossless transfer" `Quick lossless_transfer_completes;
    Alcotest.test_case "transfer with loss" `Quick completes_with_random_loss;
    Alcotest.test_case "syn fixed timer" `Quick syn_retransmits_on_fixed_timer;
    Alcotest.test_case "syn abort after 9" `Quick connection_aborts_after_nine_syns;
    Alcotest.test_case "data abort limits" `Quick aborts_when_segment_transmitted_too_often;
    Alcotest.test_case "duplicate syn/ack" `Quick duplicate_synack_harmless;
    Alcotest.test_case "out of order" `Quick out_of_order_data_is_buffered;
    Alcotest.test_case "wrong conn id" `Quick wrong_conn_id_ignored;
    Alcotest.test_case "rst aborts" `Quick rst_aborts;
    Alcotest.test_case "rto defaults" `Quick rto_defaults;
    Alcotest.test_case "rto tracks rtt" `Quick rto_tracks_rtt;
    Alcotest.test_case "rto floor" `Quick rto_min_floor;
    Alcotest.test_case "rto variance" `Quick rto_variance_raises_timeout;
    QCheck_alcotest.to_alcotest rto_backoff_is_exponential;
  ]
