(* Known-answer tests for every primitive (the capability scheme is only as
   sound as these), plus properties of the rotating-secret machinery. *)

let hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.init (String.length s) (String.get s)))

let check_hex msg expected got = Alcotest.(check string) msg expected (hex got)

(* --- SHA-1 (RFC 3174 / FIPS 180 vectors) --------------------------- *)

let sha1_empty () =
  check_hex "sha1('')" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (Crypto.Sha1.digest "")

let sha1_abc () =
  check_hex "sha1(abc)" "a9993e364706816aba3e25717850c26c9cd0d89d" (Crypto.Sha1.digest "abc")

let sha1_448bits () =
  check_hex "sha1(two-block)" "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (Crypto.Sha1.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let sha1_million_a () =
  check_hex "sha1(a^1e6)" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Crypto.Sha1.digest (String.make 1_000_000 'a'))

let sha1_streaming_equals_oneshot () =
  let msg = String.init 1000 (fun i -> Char.chr (i land 0xff)) in
  let ctx = Crypto.Sha1.init () in
  (* Feed in awkward chunk sizes crossing block boundaries. *)
  let rec feed off =
    if off < String.length msg then begin
      let len = min 17 (String.length msg - off) in
      Crypto.Sha1.feed ctx (String.sub msg off len);
      feed (off + len)
    end
  in
  feed 0;
  Alcotest.(check string) "streaming = one-shot" (hex (Crypto.Sha1.digest msg)) (hex (Crypto.Sha1.get ctx))

let sha1_get_is_idempotent () =
  let ctx = Crypto.Sha1.init () in
  Crypto.Sha1.feed ctx "hello";
  let d1 = Crypto.Sha1.get ctx in
  let d2 = Crypto.Sha1.get ctx in
  Alcotest.(check string) "get twice" (hex d1) (hex d2);
  Crypto.Sha1.feed ctx " world";
  Alcotest.(check string) "continue after get" (hex (Crypto.Sha1.digest "hello world"))
    (hex (Crypto.Sha1.get ctx))

(* --- AES-128 (FIPS-197 appendix vectors) ---------------------------- *)

let aes_fips_c1 () =
  let key = Crypto.Aes128.expand_key (String.init 16 Char.chr) in
  let plain = String.init 16 (fun i -> Char.chr ((i * 0x11) land 0xff)) in
  check_hex "FIPS-197 C.1" "69c4e0d86a7b0430d8cdb78070b4c55a" (Crypto.Aes128.encrypt key plain)

let aes_gladman_vector () =
  (* FIPS-197 appendix B example. *)
  let key =
    Crypto.Aes128.expand_key
      "\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c"
  in
  let plain = "\x32\x43\xf6\xa8\x88\x5a\x30\x8d\x31\x31\x98\xa2\xe0\x37\x07\x34" in
  check_hex "FIPS-197 B" "3925841d02dc09fbdc118597196a0b32" (Crypto.Aes128.encrypt key plain)

let aes_rejects_bad_key () =
  Alcotest.check_raises "short key" (Invalid_argument "Aes128.expand_key: key must be 16 bytes")
    (fun () -> ignore (Crypto.Aes128.expand_key "short"))

let aes_in_place () =
  let key = Crypto.Aes128.expand_key (String.make 16 'k') in
  let buf = Bytes.of_string (String.make 16 'p') in
  Crypto.Aes128.encrypt_block key buf ~src_off:0 buf ~dst_off:0;
  Alcotest.(check string) "in-place = copy" (hex (Crypto.Aes128.encrypt key (String.make 16 'p')))
    (hex (Bytes.to_string buf))

(* --- SipHash-2-4 (reference vectors) -------------------------------- *)

let siphash_reference_vectors () =
  (* First eight rows of the reference implementation's vectors_sip64. *)
  let expected =
    [|
      "310e0edd47db6f72"; "fd67dc93c539f874"; "5a4fa9d909806c0d"; "2d7efbd796666785";
      "b7877127e09427cf"; "8da699cd64557618"; "cee3fe586e46c9cb"; "37d1018bf50002ab";
    |]
  in
  let key = String.init 16 Char.chr in
  Array.iteri
    (fun i e ->
      let msg = String.init i Char.chr in
      check_hex (Printf.sprintf "siphash len=%d" i) e (Crypto.Siphash.mac_string ~key msg))
    expected

let siphash_15byte_vector () =
  let key = String.init 16 Char.chr in
  check_hex "siphash len=15" "e545be4961ca29a1"
    (Crypto.Siphash.mac_string ~key (String.init 15 Char.chr))

let siphash_rejects_bad_key () =
  Alcotest.check_raises "bad key" (Invalid_argument "Siphash.mac: key must be 16 bytes") (fun () ->
      ignore (Crypto.Siphash.mac ~key:"tiny" "msg"))

(* The word-packed hot-path entry point must agree with the string path on
   every message length it covers. *)
let siphash_mac_short_matches_mac =
  QCheck.Test.make ~name:"siphash: mac_short = mac on all 8..15-byte messages" ~count:500
    QCheck.(
      triple (int_range 8 15)
        (list_of_size (QCheck.Gen.return 15) (int_range 0 255))
        (string_of_size (QCheck.Gen.return 16)))
    (fun (len, bytes, key) ->
      let bytes = Array.of_list bytes in
      let msg = String.init len (fun i -> Char.chr bytes.(i)) in
      let w0 = ref 0L in
      for i = 0 to 7 do
        w0 := Int64.logor !w0 (Int64.shift_left (Int64.of_int bytes.(i)) (8 * i))
      done;
      let tail = ref 0L in
      for i = 8 to len - 1 do
        tail := Int64.logor !tail (Int64.shift_left (Int64.of_int bytes.(i)) (8 * (i - 8)))
      done;
      Int64.equal
        (Crypto.Siphash.mac_short ~key ~len ~w0:!w0 ~tail:!tail)
        (Crypto.Siphash.mac ~key msg))

(* A record-state SipHash-2-4 transcribed straight from the reference
   implementation: slow, but sharing no code with the library's unboxed
   rounds, so it is the oracle for every message length. *)
let reference_siphash ~key msg =
  let word s off =
    let w = ref 0L in
    for i = 7 downto 0 do
      w := Int64.logor (Int64.shift_left !w 8) (Int64.of_int (Char.code s.[off + i]))
    done;
    !w
  in
  let rotl x b = Int64.logor (Int64.shift_left x b) (Int64.shift_right_logical x (64 - b)) in
  let k0 = word key 0 and k1 = word key 8 in
  let v =
    [|
      Int64.logxor k0 0x736f6d6570736575L;
      Int64.logxor k1 0x646f72616e646f6dL;
      Int64.logxor k0 0x6c7967656e657261L;
      Int64.logxor k1 0x7465646279746573L;
    |]
  in
  let round () =
    v.(0) <- Int64.add v.(0) v.(1);
    v.(1) <- Int64.logxor (rotl v.(1) 13) v.(0);
    v.(0) <- rotl v.(0) 32;
    v.(2) <- Int64.add v.(2) v.(3);
    v.(3) <- Int64.logxor (rotl v.(3) 16) v.(2);
    v.(0) <- Int64.add v.(0) v.(3);
    v.(3) <- Int64.logxor (rotl v.(3) 21) v.(0);
    v.(2) <- Int64.add v.(2) v.(1);
    v.(1) <- Int64.logxor (rotl v.(1) 17) v.(2);
    v.(2) <- rotl v.(2) 32
  in
  let compress m =
    v.(3) <- Int64.logxor v.(3) m;
    round ();
    round ();
    v.(0) <- Int64.logxor v.(0) m
  in
  let len = String.length msg in
  for i = 0 to (len / 8) - 1 do
    compress (word msg (8 * i))
  done;
  let last = ref (Int64.shift_left (Int64.of_int (len land 0xff)) 56) in
  for i = 0 to (len mod 8) - 1 do
    last :=
      Int64.logor !last (Int64.shift_left (Int64.of_int (Char.code msg.[(len land lnot 7) + i])) (8 * i))
  done;
  compress !last;
  v.(2) <- Int64.logxor v.(2) 0xffL;
  for _ = 1 to 4 do
    round ()
  done;
  Int64.logxor (Int64.logxor v.(0) v.(1)) (Int64.logxor v.(2) v.(3))

let siphash_mac_matches_reference =
  QCheck.Test.make ~name:"siphash: mac = mac_bytes = reference on 0..64-byte messages" ~count:500
    QCheck.(
      triple
        (string_of_size (QCheck.Gen.return 16))
        (string_of_size QCheck.Gen.(int_range 0 64))
        (int_range 0 8))
    (fun (key, msg, slack) ->
      (* [mac_bytes] reads only the first [len] bytes of a longer buffer. *)
      let buf = Bytes.of_string (msg ^ String.make slack '\xff') in
      let expected = reference_siphash ~key msg in
      Int64.equal (Crypto.Siphash.mac ~key msg) expected
      && Int64.equal (Crypto.Siphash.mac_bytes ~key buf ~len:(String.length msg)) expected)

let siphash_mac_bytes_rejects_bad_len () =
  let key = String.make 16 'k' in
  Alcotest.check_raises "len past the buffer"
    (Invalid_argument "Siphash.mac_bytes: len out of range") (fun () ->
      ignore (Crypto.Siphash.mac_bytes ~key (Bytes.create 4) ~len:5))

(* The general path keeps its state unboxed: a call allocates only its
   boxed int64 result (3 words), at every message length.  [mac_short_k]
   inlines into its caller, so its result stays unboxed too: nothing. *)
let siphash_mac_allocation_budget () =
  let key = String.make 16 'k' and iters = 2000 in
  let acc = ref 0L in
  let w0 = Gc.minor_words () in
  for i = 1 to iters do
    acc :=
      Int64.logxor !acc
        (Crypto.Siphash.mac_short_k ~k0:1L ~k1:2L ~len:9 ~w0:(Int64.of_int i) ~tail:0L)
  done;
  let w_short = (Gc.minor_words () -. w0) /. float_of_int iters in
  ignore (Sys.opaque_identity !acc);
  if w_short > 0. then
    Alcotest.failf
      "mac_short_k allocates %.2f minor words/call (budget 0): not inlined, e.g. built with \
       the dev profile's -opaque"
      w_short;
  for len = 0 to 64 do
    let msg = String.init len (fun i -> Char.chr (i * 37 land 0xff)) in
    let buf = Bytes.of_string msg in
    let per_call f =
      ignore (Sys.opaque_identity (f ()));
      let w0 = Gc.minor_words () in
      for _ = 1 to iters do
        ignore (Sys.opaque_identity (f ()))
      done;
      (Gc.minor_words () -. w0) /. float_of_int iters
    in
    let w_mac = per_call (fun () -> Crypto.Siphash.mac ~key msg) in
    let w_bytes = per_call (fun () -> Crypto.Siphash.mac_bytes ~key buf ~len) in
    if w_mac > 3. || w_bytes > 3. then
      Alcotest.failf "len %d: mac allocates %.2f, mac_bytes %.2f minor words/call (budget 3)" len
        w_mac w_bytes
  done

(* --- Preimage writers ------------------------------------------------- *)

let put_decimal_matches_printf =
  QCheck.Test.make ~name:"preimage: put_decimal writes the bytes %d prints" ~count:500
    QCheck.(oneof [ int; int_range (-1000) 1000; oneofl [ min_int; max_int; 0; -1 ] ])
    (fun n ->
      let b = Bytes.make (Crypto.Preimage.max_decimal_len + 2) '#' in
      let stop = Crypto.Preimage.put_decimal b 1 n in
      Bytes.sub_string b 1 (stop - 1) = Printf.sprintf "%d" n
      && Bytes.get b 0 = '#'
      && Bytes.get b stop = '#')

(* SIFF markings: the old per-packet [Printf]/[^] preimage, hashed by the
   reference SipHash, against the router's scratch-buffer path.  Master
   lengths 0..40 move the per-packet bytes across every 8-byte word
   boundary; each case walks one router through several epochs so the
   cached text prefix is rebuilt and reused. *)
let siff_reference_bits ~secret_master ~router_id ~epoch ~src ~dst =
  let wire a =
    let a = Wire.Addr.to_int a in
    String.init 4 (fun i -> Char.chr ((a lsr (8 * (3 - i))) land 0xff))
  in
  let msg = Printf.sprintf "%d|%d|%s%s" router_id epoch (wire src) (wire dst) in
  Int64.to_int (reference_siphash ~key:"SIFF marking key" (secret_master ^ msg))
  land ((1 lsl Wire.Siff_marking.bits_per_router) - 1)

let siff_marking_matches_reference =
  let addr = QCheck.map Wire.Addr.of_int (QCheck.int_range 0 Wire.Addr.(to_int broadcast)) in
  QCheck.Test.make ~name:"siff: marking_bits = Printf-preimage reference" ~count:300
    QCheck.(
      triple
        (string_of_size Gen.(int_range 0 40))
        int
        (list_of_size Gen.(int_range 1 8) (triple (int_range 0 100_000) addr addr)))
    (fun (secret_master, router_id, probes) ->
      let sim = Sim.create () in
      let r = Siff.Router.create ~rotation_period:1. ~secret_master ~router_id ~sim () in
      List.for_all
        (fun (epoch, src, dst) ->
          Siff.Router.marking_bits r ~now:(float_of_int epoch +. 0.5) ~src ~dst
          = siff_reference_bits ~secret_master ~router_id ~epoch ~src ~dst)
        probes)

(* --- HMAC-SHA1 (RFC 2202 vectors) ----------------------------------- *)

let hmac_rfc2202_case1 () =
  check_hex "rfc2202 #1" "b617318655057264e28bc0b6fb378c8ef146be00"
    (Crypto.Hmac_sha1.mac ~key:(String.make 20 '\x0b') "Hi There")

let hmac_rfc2202_case2 () =
  check_hex "rfc2202 #2" "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
    (Crypto.Hmac_sha1.mac ~key:"Jefe" "what do ya want for nothing?")

let hmac_rfc2202_case3 () =
  check_hex "rfc2202 #3" "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
    (Crypto.Hmac_sha1.mac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'))

let hmac_long_key () =
  (* RFC 2202 case 6: keys longer than a block are hashed first. *)
  check_hex "rfc2202 #6" "aa4ae5e15272d00e95705637ce8a3b55ed402112"
    (Crypto.Hmac_sha1.mac ~key:(String.make 80 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First")

(* --- AES-hash (MMO construction) ------------------------------------ *)

let aes_hash_deterministic () =
  Alcotest.(check string) "deterministic" (hex (Crypto.Aes_hash.digest "hello"))
    (hex (Crypto.Aes_hash.digest "hello"))

let aes_hash_length_extension_guard () =
  (* Padding includes the length, so "a" and "a\x80..." differ. *)
  let a = Crypto.Aes_hash.digest "a" in
  let b = Crypto.Aes_hash.digest ("a" ^ "\x80" ^ String.make 6 '\000') in
  Alcotest.(check bool) "distinct" false (String.equal a b)

let aes_hash_sizes () =
  Alcotest.(check int) "digest size" 16 (String.length (Crypto.Aes_hash.digest ""));
  Alcotest.(check int) "mac size" 16 (String.length (Crypto.Aes_hash.mac ~key:"k" "m"))

let aes_hash_key_separates () =
  let a = Crypto.Aes_hash.mac ~key:"key1" "msg" in
  let b = Crypto.Aes_hash.mac ~key:"key2" "msg" in
  Alcotest.(check bool) "keys matter" false (String.equal a b)

(* --- Keyed_hash instances ------------------------------------------- *)

let keyed_hash_width () =
  List.iter
    (fun (module H : Crypto.Keyed_hash.Reference) ->
      let v = H.mac56 ~key:(String.make 16 'k') "some message" in
      Alcotest.(check bool)
        (H.name ^ " fits 56 bits")
        true
        (Int64.shift_right_logical v 56 = 0L))
    [ (module Crypto.Keyed_hash.Fast); (module Crypto.Keyed_hash.Aes); (module Crypto.Keyed_hash.Sha) ]

let keyed_hash_distinct_messages =
  QCheck.Test.make ~name:"keyed_hash: distinct messages give distinct macs (w.h.p.)" ~count:100
    QCheck.(pair small_string small_string)
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let key = String.make 16 'k' in
      not (Int64.equal (Crypto.Keyed_hash.Fast.mac56 ~key a) (Crypto.Keyed_hash.Fast.mac56 ~key b)))

(* The prepared-key entry points the router runs must be bit-for-bit the
   hash of the preimage strings, for every implementation — the router's
   fast path and the destination's slow path have to mint identical
   capabilities.  Prototype is checked one role at a time: its
   pre-capability is Aes's and its capability is Sha's. *)
let direct_mac56_matches_string_preimage =
  let open Crypto.Keyed_hash in
  let modules =
    [
      ((module Fast : S), Fast.mac56, Fast.mac56);
      ((module Aes : S), Aes.mac56, Aes.mac56);
      ((module Sha : S), Sha.mac56, Sha.mac56);
      ((module Prototype : S), Aes.mac56, Sha.mac56);
    ]
  in
  QCheck.Test.make
    ~name:
      "keyed_hash: mac56_precap/mac56_cap = string-preimage path (prepared keys; \
       Fast/Aes/Sha/Prototype)"
    ~count:100
    QCheck.(
      pair
        (string_of_size QCheck.Gen.(int_range 1 32))
        (triple
           (pair (map (fun i -> i land 0xFFFFFFFF) int) (map (fun i -> i land 0xFFFFFFFF) int))
           (int_range 0 255)
           (pair (int_range 0 1023) (int_range 0 63))))
    (fun (key, ((src, dst), ts, (n_kb, t_sec))) ->
      List.for_all
        (fun ((module H : S), precap_ref, cap_ref) ->
          let prep = H.prepare key in
          let ph = H.mac56_precap_p ~prep ~src ~dst ~ts in
          let ch = H.mac56_cap_p ~prep ~precap_ts:ts ~precap_hash:ph ~n_kb ~t_sec in
          ph = Int64.to_int (precap_ref ~key (precap_preimage ~src ~dst ~ts))
          && ch = Int64.to_int (cap_ref ~key (cap_preimage ~precap_ts:ts ~precap_hash:ph ~n_kb ~t_sec)))
        modules)

(* --- Rotating secrets (paper Sec. 3.4) ------------------------------- *)

let secret_issuing_is_stable_within_epoch () =
  let s = Crypto.Secret.create ~master:"m" in
  Alcotest.(check string) "same epoch" (Crypto.Secret.issuing_secret s ~now:10.)
    (Crypto.Secret.issuing_secret s ~now:127.9)

let secret_rotates_every_128s () =
  let s = Crypto.Secret.create ~master:"m" in
  Alcotest.(check bool) "rotated" false
    (String.equal (Crypto.Secret.issuing_secret s ~now:10.) (Crypto.Secret.issuing_secret s ~now:140.))

let secret_high_bit_selects () =
  let s = Crypto.Secret.create ~master:"m" in
  (* A capability issued at t=100 (ts=100, high bit 0, epoch 0) validated at
     t=150 (epoch 1): the validator must pick the previous secret. *)
  let issue = Crypto.Secret.issuing_secret s ~now:100. in
  let ts = Crypto.Secret.timestamp ~now:100. in
  Alcotest.(check string) "previous secret selected" issue
    (Crypto.Secret.validating_secret s ~now:150. ~ts);
  (* And at t=120 (same epoch) it picks the current secret. *)
  Alcotest.(check string) "current secret selected" issue
    (Crypto.Secret.validating_secret s ~now:120. ~ts)

let secret_expires_after_two_epochs () =
  let s = Crypto.Secret.create ~master:"m" in
  let issue = Crypto.Secret.issuing_secret s ~now:100. in
  let ts = Crypto.Secret.timestamp ~now:100. in
  (* Two epochs later the same parity maps to a *newer* secret, so the old
     one can never validate again. *)
  Alcotest.(check bool) "secret retired" false
    (String.equal issue (Crypto.Secret.validating_secret s ~now:(100. +. 256.) ~ts))

let secret_timestamp_is_modulo_256 () =
  Alcotest.(check int) "ts at 300s" (300 mod 256) (Crypto.Secret.timestamp ~now:300.);
  Alcotest.(check int) "ts at 255.9" 255 (Crypto.Secret.timestamp ~now:255.9)

(* [timestamp] and [epoch] round down without libm's [floor]; they must
   agree with it on every clock, negative and fractional ones included. *)
let secret_clock_matches_floor =
  QCheck.Test.make ~name:"secret: timestamp and epoch round down like floor" ~count:1000
    QCheck.(oneof [ float_range (-1e6) 1e6; map float_of_int (int_range (-100_000) 100_000) ])
    (fun now ->
      Crypto.Secret.timestamp ~now = int_of_float (floor now) land 0xff
      && Crypto.Secret.epoch ~now = int_of_float (floor (now /. Crypto.Secret.rotation_period)))

let secret_deterministic_from_master () =
  let a = Crypto.Secret.create ~master:"same" and b = Crypto.Secret.create ~master:"same" in
  Alcotest.(check string) "same master, same secrets" (Crypto.Secret.issuing_secret a ~now:42.)
    (Crypto.Secret.issuing_secret b ~now:42.)

let secret_epoch_cache_is_transparent () =
  (* The per-instance epoch-key cache (two slots, current + previous) must
     be invisible: hammering one instance across epoch changes, in both
     directions, returns exactly what a fresh instance computes. *)
  let cached = Crypto.Secret.create ~master:"cache-check" in
  let times = [ 10.; 140.; 10.; 300.; 140.; 10.; 1000.; 300. ] in
  List.iter
    (fun now ->
      let fresh = Crypto.Secret.create ~master:"cache-check" in
      Alcotest.(check string)
        (Printf.sprintf "issuing at t=%g" now)
        (Crypto.Secret.issuing_secret fresh ~now)
        (Crypto.Secret.issuing_secret cached ~now);
      let ts = Crypto.Secret.timestamp ~now in
      Alcotest.(check string)
        (Printf.sprintf "validating at t=%g" now)
        (Crypto.Secret.validating_secret fresh ~now ~ts)
        (Crypto.Secret.validating_secret cached ~now ~ts))
    times

let suite =
  [
    Alcotest.test_case "sha1 empty" `Quick sha1_empty;
    Alcotest.test_case "sha1 abc" `Quick sha1_abc;
    Alcotest.test_case "sha1 448-bit" `Quick sha1_448bits;
    Alcotest.test_case "sha1 million a" `Slow sha1_million_a;
    Alcotest.test_case "sha1 streaming" `Quick sha1_streaming_equals_oneshot;
    Alcotest.test_case "sha1 get idempotent" `Quick sha1_get_is_idempotent;
    Alcotest.test_case "aes FIPS C.1" `Quick aes_fips_c1;
    Alcotest.test_case "aes FIPS B" `Quick aes_gladman_vector;
    Alcotest.test_case "aes bad key" `Quick aes_rejects_bad_key;
    Alcotest.test_case "aes in place" `Quick aes_in_place;
    Alcotest.test_case "siphash vectors 0-7" `Quick siphash_reference_vectors;
    Alcotest.test_case "siphash vector 15" `Quick siphash_15byte_vector;
    Alcotest.test_case "siphash bad key" `Quick siphash_rejects_bad_key;
    QCheck_alcotest.to_alcotest siphash_mac_short_matches_mac;
    QCheck_alcotest.to_alcotest direct_mac56_matches_string_preimage;
    Alcotest.test_case "hmac rfc2202 #1" `Quick hmac_rfc2202_case1;
    Alcotest.test_case "hmac rfc2202 #2" `Quick hmac_rfc2202_case2;
    Alcotest.test_case "hmac rfc2202 #3" `Quick hmac_rfc2202_case3;
    Alcotest.test_case "hmac long key" `Quick hmac_long_key;
    Alcotest.test_case "aes-hash deterministic" `Quick aes_hash_deterministic;
    Alcotest.test_case "aes-hash no trivial extension" `Quick aes_hash_length_extension_guard;
    Alcotest.test_case "aes-hash sizes" `Quick aes_hash_sizes;
    Alcotest.test_case "aes-hash keyed" `Quick aes_hash_key_separates;
    Alcotest.test_case "keyed-hash 56-bit width" `Quick keyed_hash_width;
    QCheck_alcotest.to_alcotest keyed_hash_distinct_messages;
    Alcotest.test_case "secret stable in epoch" `Quick secret_issuing_is_stable_within_epoch;
    Alcotest.test_case "secret rotates" `Quick secret_rotates_every_128s;
    Alcotest.test_case "secret high-bit selection" `Quick secret_high_bit_selects;
    Alcotest.test_case "secret retired after 2 epochs" `Quick secret_expires_after_two_epochs;
    Alcotest.test_case "timestamp modulo 256" `Quick secret_timestamp_is_modulo_256;
    QCheck_alcotest.to_alcotest secret_clock_matches_floor;
    Alcotest.test_case "secret deterministic" `Quick secret_deterministic_from_master;
    Alcotest.test_case "secret epoch cache transparent" `Quick secret_epoch_cache_is_transparent;
    QCheck_alcotest.to_alcotest siphash_mac_matches_reference;
    Alcotest.test_case "siphash mac_bytes bad len" `Quick siphash_mac_bytes_rejects_bad_len;
    Alcotest.test_case "siphash mac allocation" `Quick siphash_mac_allocation_budget;
    QCheck_alcotest.to_alcotest put_decimal_matches_printf;
    QCheck_alcotest.to_alcotest siff_marking_matches_reference;
  ]
