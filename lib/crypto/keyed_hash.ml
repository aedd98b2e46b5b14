(* A key preprocessed for per-packet use.  For SipHash this is the
   normalized key already split into its two 64-bit words — loading those
   words costs more than the hash rounds themselves, so the router prepares
   each epoch secret once and hashes packets against the prepared form.
   String-preimage implementations just carry the key through [pk]. *)
type prepared = { pk : string; k0 : int64; k1 : int64 }

module type S = sig
  val name : string
  val prepare : string -> prepared
  val mac56_precap_p : prep:prepared -> src:int -> dst:int -> ts:int -> int64

  val mac56_cap_p :
    prep:prepared -> precap_ts:int -> precap_hash:int64 -> n_kb:int -> t_sec:int -> int64
end

module type Reference = sig
  include S

  val mac56 : key:string -> string -> int64
end

let mask56 = 0x00ffffffffffffffL

let int64_of_prefix s =
  (* First 8 bytes of [s], big-endian; [s] must be at least 8 bytes. *)
  let g i = Int64.of_int (Char.code s.[i]) in
  let acc = ref 0L in
  for i = 0 to 7 do
    acc := Int64.logor (Int64.shift_left !acc 8) (g i)
  done;
  !acc

(* The two capability preimages (paper Fig. 3), as strings.  These define
   the canonical byte layouts; [mac56_precap_p]/[mac56_cap_p] must agree
   with hashing these bit-for-bit, which the crypto property tests check. *)

let precap_preimage ~src ~dst ~ts =
  (* src (4 bytes BE) | dst (4 bytes BE) | ts (1 byte) — 9 bytes. *)
  let b = Bytes.create 9 in
  Bytes.set b 0 (Char.chr ((src lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((src lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((src lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (src land 0xff));
  Bytes.set b 4 (Char.chr ((dst lsr 24) land 0xff));
  Bytes.set b 5 (Char.chr ((dst lsr 16) land 0xff));
  Bytes.set b 6 (Char.chr ((dst lsr 8) land 0xff));
  Bytes.set b 7 (Char.chr (dst land 0xff));
  Bytes.set b 8 (Char.chr (ts land 0xff));
  Bytes.unsafe_to_string b

let cap_preimage ~precap_ts ~precap_hash ~n_kb ~t_sec =
  (* ts (1) | precap hash (7 bytes BE) | N (10 bits in 2 bytes) | T (1) —
     11 bytes.  The hash is 56 bits wide so it fits an OCaml int. *)
  let h = Int64.to_int precap_hash in
  let b = Bytes.create 11 in
  Bytes.set b 0 (Char.chr (precap_ts land 0xff));
  for i = 0 to 6 do
    Bytes.set b (i + 1) (Char.chr ((h lsr (8 * (6 - i))) land 0xff))
  done;
  Bytes.set b 8 (Char.chr ((n_kb lsr 8) land 0x03));
  Bytes.set b 9 (Char.chr (n_kb land 0xff));
  Bytes.set b 10 (Char.chr (t_sec land 0x3f));
  Bytes.unsafe_to_string b

module Fast = struct
  let name = "siphash-2-4"

  (* SipHash wants a 16-byte key; shorter/longer keys are normalized by
     hashing them under a fixed key first.  Keys from [Crypto.Secret] are
     already 16 bytes, so the hot path takes the no-op branch. *)
  let[@inline] normalize key =
    if String.length key = 16 then key
    else
      Siphash.mac_string ~key:"TVA key normali." key
      ^ Siphash.mac_string ~key:"zation constant." key

  let mac56 ~key msg = Int64.logand (Siphash.mac ~key:(normalize key) msg) mask56

  let mac56_bytes ~key buf ~len =
    Int64.logand (Siphash.mac_bytes ~key:(normalize key) buf ~len) mask56

  (* The compiler primitive behind a single [bswap] instruction. *)
  external bswap64 : int64 -> int64 = "%bswap_int64"

  (* Direct word-packed equivalents of hashing the preimage strings: byte i
     of the message lands in bits [8i, 8i+8) of the little-endian word, so
     a big-endian field packed into a word is one byte swap away. *)

  let mac56_precap_p ~prep ~src ~dst ~ts =
    (* src (BE) | dst (BE): the big-endian bytes of [src lsl 32 lor dst]. *)
    let w0 = bswap64 (Int64.logor (Int64.shift_left (Int64.of_int src) 32) (Int64.of_int dst)) in
    let tail = Int64.of_int (ts land 0xff) in
    Int64.logand (Siphash.mac_short_k ~k0:prep.k0 ~k1:prep.k1 ~len:9 ~w0 ~tail) mask56

  let mac56_cap_p ~prep ~precap_ts ~precap_hash ~n_kb ~t_sec =
    (* ts | the hash's low 56 bits (BE): byte 0 of the swapped word is the
       cleared top byte, which [ts] fills. *)
    let w0 =
      Int64.logor
        (bswap64 (Int64.logand precap_hash mask56))
        (Int64.of_int (precap_ts land 0xff))
    in
    let tail =
      Int64.of_int
        (((n_kb lsr 8) land 0x03) lor ((n_kb land 0xff) lsl 8) lor ((t_sec land 0x3f) lsl 16))
    in
    Int64.logand (Siphash.mac_short_k ~k0:prep.k0 ~k1:prep.k1 ~len:11 ~w0 ~tail) mask56

  let prepare key =
    let key = normalize key in
    let k0, k1 = Siphash.key_words key in
    { pk = key; k0; k1 }
end

(* Aes and Sha serve the prototype-fidelity benchmarks, not the hot path,
   so their fixed-preimage entry points just build the string preimage. *)

module Aes = struct
  let name = "aes-hash-mmo"
  let mac56 ~key msg = Int64.logand (int64_of_prefix (Aes_hash.mac ~key msg)) mask56
  let prepare key = { pk = key; k0 = 0L; k1 = 0L }
  let mac56_precap_p ~prep ~src ~dst ~ts = mac56 ~key:prep.pk (precap_preimage ~src ~dst ~ts)

  let mac56_cap_p ~prep ~precap_ts ~precap_hash ~n_kb ~t_sec =
    mac56 ~key:prep.pk (cap_preimage ~precap_ts ~precap_hash ~n_kb ~t_sec)
end

module Sha = struct
  let name = "hmac-sha1"
  let mac56 ~key msg = Int64.logand (int64_of_prefix (Hmac_sha1.mac ~key msg)) mask56
  let prepare key = { pk = key; k0 = 0L; k1 = 0L }
  let mac56_precap_p ~prep ~src ~dst ~ts = mac56 ~key:prep.pk (precap_preimage ~src ~dst ~ts)

  let mac56_cap_p ~prep ~precap_ts ~precap_hash ~n_kb ~t_sec =
    mac56 ~key:prep.pk (cap_preimage ~precap_ts ~precap_hash ~n_kb ~t_sec)
end

(* The paper's prototype pairing: AES-hash for pre-capabilities, HMAC-SHA1
   for capabilities.  Both carry the key through [pk], so one prepared
   form serves either role. *)
module Prototype = struct
  let name = "aes-hash-mmo+hmac-sha1"
  let prepare = Aes.prepare
  let mac56_precap_p = Aes.mac56_precap_p
  let mac56_cap_p = Sha.mac56_cap_p
end

(* A three-slot memo from key strings to their prepared form, keyed by
   physical identity.  [Secret] hands back the same memoized string for a
   given epoch, and the live set is at most {current epoch, previous
   epoch, public capability key}, so three slots make re-preparation a
   cold event (epoch rotation only). *)
type prep_cache = {
  mutable s0 : string;
  mutable p0 : prepared;
  mutable s1 : string;
  mutable p1 : prepared;
  mutable s2 : string;
  mutable p2 : prepared;
}

let empty_prepared = { pk = ""; k0 = 0L; k1 = 0L }

let prep_cache () =
  { s0 = ""; p0 = empty_prepared; s1 = ""; p1 = empty_prepared; s2 = ""; p2 = empty_prepared }

let prepare_into (module H : S) cache key =
  let p = H.prepare key in
  cache.s2 <- cache.s1;
  cache.p2 <- cache.p1;
  cache.s1 <- cache.s0;
  cache.p1 <- cache.p0;
  cache.s0 <- key;
  cache.p0 <- p;
  p

(* The hit probe inlines into each caller; a miss is an epoch rotation. *)
let[@inline] prepared_of hash cache key =
  if cache.s0 == key then cache.p0
  else if cache.s1 == key then cache.p1
  else if cache.s2 == key then cache.p2
  else prepare_into hash cache key
