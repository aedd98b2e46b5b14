(* Wire formats: addresses, the bit-level buffer, the capability header
   codec (Fig. 5), SIFF markings, and packet size accounting. *)

(* --- Addr ------------------------------------------------------------- *)

let addr_roundtrip () =
  let a = Wire.Addr.of_int 0x0a000001 in
  Alcotest.(check int) "roundtrip" 0x0a000001 (Wire.Addr.to_int a);
  let wire = Bytes.create 4 in
  ignore (Crypto.Preimage.put_be32 wire 0 (Wire.Addr.to_int a));
  Alcotest.(check string) "wire bytes" "\x0a\x00\x00\x01" (Bytes.to_string wire)

let addr_rejects_out_of_range () =
  (match Wire.Addr.of_int (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative accepted");
  match Wire.Addr.of_int 0x1_0000_0000 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "too large accepted"

let addr_pp () =
  Alcotest.(check string) "dotted quad" "10.0.0.1"
    (Format.asprintf "%a" Wire.Addr.pp (Wire.Addr.of_int 0x0a000001))

(* --- Bitbuf ------------------------------------------------------------ *)

let bitbuf_simple_roundtrip () =
  let w = Wire.Bitbuf.Writer.create () in
  Wire.Bitbuf.Writer.put w ~bits:4 0xA;
  Wire.Bitbuf.Writer.put w ~bits:4 0x5;
  Wire.Bitbuf.Writer.put w ~bits:16 0xBEEF;
  Wire.Bitbuf.Writer.put64 w ~bits:48 0x123456789ABCL;
  let s = Wire.Bitbuf.Writer.contents w in
  Alcotest.(check int) "length" 9 (String.length s);
  let r = Wire.Bitbuf.Reader.create s in
  Alcotest.(check int) "nibble 1" 0xA (Wire.Bitbuf.Reader.get r ~bits:4);
  Alcotest.(check int) "nibble 2" 0x5 (Wire.Bitbuf.Reader.get r ~bits:4);
  Alcotest.(check int) "word" 0xBEEF (Wire.Bitbuf.Reader.get r ~bits:16);
  Alcotest.(check int64) "48 bits" 0x123456789ABCL (Wire.Bitbuf.Reader.get64 r ~bits:48)

let bitbuf_64bit () =
  let w = Wire.Bitbuf.Writer.create () in
  Wire.Bitbuf.Writer.put64 w ~bits:64 0xFFEEDDCCBBAA9988L;
  let r = Wire.Bitbuf.Reader.create (Wire.Bitbuf.Writer.contents w) in
  Alcotest.(check int64) "full word" 0xFFEEDDCCBBAA9988L (Wire.Bitbuf.Reader.get64 r ~bits:64)

let bitbuf_rejects_overflow () =
  let w = Wire.Bitbuf.Writer.create () in
  match Wire.Bitbuf.Writer.put w ~bits:4 16 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "overflow accepted"

let bitbuf_truncated_read () =
  let r = Wire.Bitbuf.Reader.create "\xff" in
  ignore (Wire.Bitbuf.Reader.get r ~bits:8);
  match Wire.Bitbuf.Reader.get r ~bits:1 with
  | exception Wire.Bitbuf.Reader.Truncated -> ()
  | _ -> Alcotest.fail "read past end"

let bitbuf_padding_is_zero () =
  let w = Wire.Bitbuf.Writer.create () in
  Wire.Bitbuf.Writer.put w ~bits:3 0b111;
  let s = Wire.Bitbuf.Writer.contents w in
  Alcotest.(check int) "one byte" 1 (String.length s);
  Alcotest.(check int) "left aligned, zero padded" 0b11100000 (Char.code s.[0])

let bitbuf_random_roundtrip =
  QCheck.Test.make ~name:"bitbuf: arbitrary field sequences round-trip" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (pair (int_range 1 30) small_nat))
    (fun fields ->
      let fields = List.map (fun (bits, v) -> (bits, v land ((1 lsl bits) - 1))) fields in
      let w = Wire.Bitbuf.Writer.create () in
      List.iter (fun (bits, v) -> Wire.Bitbuf.Writer.put w ~bits v) fields;
      let r = Wire.Bitbuf.Reader.create (Wire.Bitbuf.Writer.contents w) in
      List.for_all (fun (bits, v) -> Wire.Bitbuf.Reader.get r ~bits = v) fields)

(* --- Cap_shim codec ----------------------------------------------------- *)

let cap ts hash = { Wire.Cap_shim.ts; hash }

let roundtrip shim =
  match Wire.Cap_shim.decode (Wire.Cap_shim.encode shim) with
  | Ok decoded -> decoded
  | Error e -> Alcotest.failf "decode failed: %s" e

let shim_equal (a : Wire.Cap_shim.t) (b : Wire.Cap_shim.t) =
  a.Wire.Cap_shim.kind = b.Wire.Cap_shim.kind
  && a.Wire.Cap_shim.demoted = b.Wire.Cap_shim.demoted
  && a.Wire.Cap_shim.return_info = b.Wire.Cap_shim.return_info
  && a.Wire.Cap_shim.ptr = b.Wire.Cap_shim.ptr

let request_roundtrip () =
  let shim = Wire.Cap_shim.request () in
  shim.Wire.Cap_shim.kind <-
    Wire.Cap_shim.Request
      {
        rev_path_ids = List.rev [ 0x1234; 0xFFFF ];
        rev_precaps = List.rev [ cap 12 0xAABBCCDDEEFFL; cap 255 1L ];
      };
  Alcotest.(check bool) "request round-trips" true (shim_equal shim (roundtrip shim))

let regular_nonce_only_roundtrip () =
  let shim =
    Wire.Cap_shim.regular ~nonce:0xABCDEF012345L ~caps:[] ~n_kb:100 ~t_sec:10 ~renewal:false ()
  in
  Alcotest.(check bool) "nonce-only round-trips" true (shim_equal shim (roundtrip shim))

let regular_with_caps_roundtrip () =
  let shim =
    Wire.Cap_shim.regular ~nonce:1L
      ~caps:[ cap 1 2L; cap 3 4L; cap 5 6L ]
      ~n_kb:1023 ~t_sec:63 ~renewal:false ()
  in
  shim.Wire.Cap_shim.ptr <- 2;
  Alcotest.(check bool) "caps round-trip" true (shim_equal shim (roundtrip shim))

let renewal_roundtrip () =
  let shim =
    Wire.Cap_shim.regular ~nonce:42L ~caps:[ cap 1 2L ] ~n_kb:32 ~t_sec:10 ~renewal:true
      ~fresh_precaps:[ cap 9 10L; cap 11 12L ] ()
  in
  Alcotest.(check bool) "renewal round-trips" true (shim_equal shim (roundtrip shim))

let demoted_flag_roundtrip () =
  let shim = Wire.Cap_shim.regular ~nonce:1L ~caps:[] ~n_kb:1 ~t_sec:1 ~renewal:false () in
  shim.Wire.Cap_shim.demoted <- true;
  Alcotest.(check bool) "demoted round-trips" true (shim_equal shim (roundtrip shim))

let return_info_roundtrip () =
  let shim = Wire.Cap_shim.request () in
  shim.Wire.Cap_shim.return_info <- Some Wire.Cap_shim.Demotion_notice;
  Alcotest.(check bool) "demotion notice" true (shim_equal shim (roundtrip shim));
  shim.Wire.Cap_shim.return_info <-
    Some (Wire.Cap_shim.Grant { n_kb = 32; t_sec = 10; caps = [ cap 7 8L ] });
  Alcotest.(check bool) "grant" true (shim_equal shim (roundtrip shim))

let wire_size_matches_encoding () =
  let shims =
    [
      Wire.Cap_shim.request ();
      Wire.Cap_shim.regular ~nonce:1L ~caps:[ cap 1 2L; cap 3 4L ] ~n_kb:32 ~t_sec:10
        ~renewal:false ();
      Wire.Cap_shim.regular ~nonce:1L ~caps:[] ~n_kb:32 ~t_sec:10 ~renewal:false ();
    ]
  in
  List.iter
    (fun shim ->
      Alcotest.(check int) "wire_size = encoded length" (String.length (Wire.Cap_shim.encode shim))
        (Wire.Cap_shim.wire_size shim))
    shims

let nonce_only_is_small () =
  (* The common-case header must be small: 2 B common + 6 B nonce + 2 B
     counts + 2 B N/T = 12 bytes. *)
  let shim = Wire.Cap_shim.regular ~nonce:1L ~caps:[] ~n_kb:32 ~t_sec:10 ~renewal:false () in
  Alcotest.(check int) "nonce-only size" 12 (Wire.Cap_shim.wire_size shim)

let per_router_capability_is_8_bytes () =
  let without = Wire.Cap_shim.regular ~nonce:1L ~caps:[] ~n_kb:32 ~t_sec:10 ~renewal:false () in
  let with_two =
    Wire.Cap_shim.regular ~nonce:1L ~caps:[ cap 1 2L; cap 3 4L ] ~n_kb:32 ~t_sec:10
      ~renewal:false ()
  in
  Alcotest.(check int) "64 bits per router" 16
    (Wire.Cap_shim.wire_size with_two - Wire.Cap_shim.wire_size without)

let encode_rejects_out_of_range () =
  let shim = Wire.Cap_shim.regular ~nonce:1L ~caps:[] ~n_kb:1024 ~t_sec:10 ~renewal:false () in
  (match Wire.Cap_shim.encode shim with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "N=1024 accepted (10-bit field)");
  let shim = Wire.Cap_shim.regular ~nonce:1L ~caps:[] ~n_kb:10 ~t_sec:64 ~renewal:false () in
  (match Wire.Cap_shim.encode shim with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "T=64 accepted (6-bit field)");
  let shim = Wire.Cap_shim.regular ~nonce:(-1L) ~caps:[] ~n_kb:1 ~t_sec:1 ~renewal:false () in
  match Wire.Cap_shim.encode shim with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "49-bit nonce accepted"

let decode_rejects_garbage () =
  (match Wire.Cap_shim.decode "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty decoded");
  match Wire.Cap_shim.decode "\xff\xff\xff" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage decoded"

let gen_cap =
  QCheck.Gen.(
    map2 (fun ts h -> cap ts h) (int_range 0 255)
      (map (fun i -> Int64.of_int (i land 0xFFFFFFFFFFFFF)) int))

let gen_shim =
  QCheck.Gen.(
    let* kind_choice = int_range 0 3 in
    let* demoted = bool in
    let* return_choice = int_range 0 2 in
    let* caps = list_size (int_range 0 4) gen_cap in
    let* path_ids = list_size (int_range 0 4) (int_range 0 65535) in
    let* nonce = map (fun i -> Int64.of_int (abs i land 0xFFFFFFFFFFF)) int in
    let* n_kb = int_range 0 1023 in
    let* t_sec = int_range 0 63 in
    let* fresh = list_size (int_range 0 3) gen_cap in
    let kind =
      match kind_choice with
      | 0 ->
          Wire.Cap_shim.Request
            { rev_path_ids = List.rev path_ids; rev_precaps = List.rev caps }
      | 1 ->
          Wire.Cap_shim.Regular
            {
              nonce;
              caps = Array.of_list caps;
              n_kb;
              t_sec;
              renewal = false;
              rev_fresh_precaps = [];
            }
      | 2 ->
          Wire.Cap_shim.Regular
            { nonce; caps = [||]; n_kb; t_sec; renewal = false; rev_fresh_precaps = [] }
      | _ ->
          Wire.Cap_shim.Regular
            {
              nonce;
              caps = Array.of_list caps;
              n_kb;
              t_sec;
              renewal = true;
              rev_fresh_precaps = List.rev fresh;
            }
    in
    let return_info =
      match return_choice with
      | 0 -> None
      | 1 -> Some Wire.Cap_shim.Demotion_notice
      | _ -> Some (Wire.Cap_shim.Grant { n_kb; t_sec; caps = fresh })
    in
    (* Request headers carry no capability ptr on the wire; only regular
       packets round-trip it. *)
    let* ptr =
      match kind with
      | Wire.Cap_shim.Request _ -> return 0
      | Wire.Cap_shim.Regular _ -> int_range 0 (max 0 (List.length caps))
    in
    return { Wire.Cap_shim.kind; demoted; return_info; ptr })

let codec_roundtrip_property =
  QCheck.Test.make ~name:"cap_shim: encode/decode round-trips" ~count:500
    (QCheck.make gen_shim) (fun shim ->
      match Wire.Cap_shim.decode (Wire.Cap_shim.encode shim) with
      | Ok decoded -> shim_equal shim decoded
      | Error _ -> false)

let codec_size_property =
  QCheck.Test.make ~name:"cap_shim: wire_size equals encoded length" ~count:500
    (QCheck.make gen_shim) (fun shim ->
      String.length (Wire.Cap_shim.encode shim) = Wire.Cap_shim.wire_size shim)

(* --- Packet sizes -------------------------------------------------------- *)

let packet_size_tcp () =
  let seg = { Wire.Tcp_segment.conn = 1; flags = Wire.Tcp_segment.Ack; seq = 0; ack = 0; payload = 1000 } in
  let p =
    Wire.Packet.make ~src:(Wire.Addr.of_int 1) ~dst:(Wire.Addr.of_int 2)
      (Wire.Packet.Tcp seg)
  in
  Alcotest.(check int) "40B header + payload" 1040 (Wire.Packet.size p)

let packet_size_includes_shim () =
  let p =
    Wire.Packet.make ~src:(Wire.Addr.of_int 1) ~dst:(Wire.Addr.of_int 2)
      (Wire.Packet.Raw 100)
  in
  let bare = Wire.Packet.size p in
  p.Wire.Packet.shim <-
    Some (Wire.Cap_shim.regular ~nonce:1L ~caps:[] ~n_kb:32 ~t_sec:10 ~renewal:false ());
  Alcotest.(check int) "shim adds its wire size" (bare + 12) (Wire.Packet.size p)

let packet_size_grows_with_precaps () =
  let p =
    Wire.Packet.make
      ~shim:(Wire.Cap_shim.request ())
      ~src:(Wire.Addr.of_int 1) ~dst:(Wire.Addr.of_int 2) (Wire.Packet.Raw 100)
  in
  let before = Wire.Packet.size p in
  (match p.Wire.Packet.shim with
  | Some shim ->
      shim.Wire.Cap_shim.kind <-
        Wire.Cap_shim.Request { rev_path_ids = [ 7 ]; rev_precaps = [ cap 1 2L ] }
  | None -> assert false);
  Alcotest.(check int) "10 more bytes (16-bit tag + 64-bit precap)" (before + 10) (Wire.Packet.size p)

let flow_keys () =
  let src = Wire.Addr.of_int 10 and dst = Wire.Addr.of_int 20 in
  let p = Wire.Packet.make ~src ~dst (Wire.Packet.Raw 1) in
  Alcotest.(check int) "flow key" (Wire.Packet.flow_key_of ~src ~dst) (Wire.Packet.flow_key p);
  Alcotest.(check int) "reverse" (Wire.Packet.flow_key_of ~src:dst ~dst:src)
    (Wire.Packet.reverse_flow_key p);
  Alcotest.(check bool) "direction matters" false
    (Wire.Packet.flow_key p = Wire.Packet.reverse_flow_key p)

let packet_ids_unique () =
  let mk () =
    Wire.Packet.make ~src:(Wire.Addr.of_int 1) ~dst:(Wire.Addr.of_int 2) (Wire.Packet.Raw 1)
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "distinct ids" true (a.Wire.Packet.id <> b.Wire.Packet.id)

(* --- Siff marking --------------------------------------------------------- *)

let siff_markings () =
  let m = Wire.Siff_marking.exp_packet () in
  Wire.Siff_marking.add_marking m ~router:1 ~bits:2;
  Wire.Siff_marking.add_marking m ~router:2 ~bits:3;
  Alcotest.(check (option int)) "router 1" (Some 2) (Wire.Siff_marking.marking_of m ~router:1);
  Alcotest.(check (option int)) "router 2" (Some 3) (Wire.Siff_marking.marking_of m ~router:2);
  Alcotest.(check (option int)) "unknown" None (Wire.Siff_marking.marking_of m ~router:9);
  Alcotest.(check (list (pair int int))) "order preserved" [ (1, 2); (2, 3) ]
    (Wire.Siff_marking.path_markings m);
  (* A router on the path twice: its first entry in path order counts. *)
  Wire.Siff_marking.add_marking m ~router:1 ~bits:0;
  Alcotest.(check (option int)) "first visit" (Some 2) (Wire.Siff_marking.marking_of m ~router:1);
  let d = Wire.Siff_marking.dta ~markings:(Wire.Siff_marking.path_markings m) in
  Alcotest.(check (option int)) "dta first visit" (Some 2) (Wire.Siff_marking.marking_of d ~router:1)

let suite =
  [
    Alcotest.test_case "addr roundtrip" `Quick addr_roundtrip;
    Alcotest.test_case "addr range" `Quick addr_rejects_out_of_range;
    Alcotest.test_case "addr pp" `Quick addr_pp;
    Alcotest.test_case "bitbuf roundtrip" `Quick bitbuf_simple_roundtrip;
    Alcotest.test_case "bitbuf 64-bit" `Quick bitbuf_64bit;
    Alcotest.test_case "bitbuf overflow" `Quick bitbuf_rejects_overflow;
    Alcotest.test_case "bitbuf truncated" `Quick bitbuf_truncated_read;
    Alcotest.test_case "bitbuf padding" `Quick bitbuf_padding_is_zero;
    QCheck_alcotest.to_alcotest bitbuf_random_roundtrip;
    Alcotest.test_case "codec request" `Quick request_roundtrip;
    Alcotest.test_case "codec nonce-only" `Quick regular_nonce_only_roundtrip;
    Alcotest.test_case "codec caps" `Quick regular_with_caps_roundtrip;
    Alcotest.test_case "codec renewal" `Quick renewal_roundtrip;
    Alcotest.test_case "codec demoted" `Quick demoted_flag_roundtrip;
    Alcotest.test_case "codec return info" `Quick return_info_roundtrip;
    Alcotest.test_case "codec sizes" `Quick wire_size_matches_encoding;
    Alcotest.test_case "nonce-only is 12 B" `Quick nonce_only_is_small;
    Alcotest.test_case "64 bits per router" `Quick per_router_capability_is_8_bytes;
    Alcotest.test_case "codec range checks" `Quick encode_rejects_out_of_range;
    Alcotest.test_case "codec garbage" `Quick decode_rejects_garbage;
    QCheck_alcotest.to_alcotest codec_roundtrip_property;
    QCheck_alcotest.to_alcotest codec_size_property;
    Alcotest.test_case "packet tcp size" `Quick packet_size_tcp;
    Alcotest.test_case "packet shim size" `Quick packet_size_includes_shim;
    Alcotest.test_case "packet grows en route" `Quick packet_size_grows_with_precaps;
    Alcotest.test_case "flow keys" `Quick flow_keys;
    Alcotest.test_case "packet ids" `Quick packet_ids_unique;
    Alcotest.test_case "siff markings" `Quick siff_markings;
  ]
