(* SipHash-2-4: 2 compression rounds per 8-byte word, 4 finalization
   rounds.  All arithmetic is on Int64 with wraparound, which matches the
   reference implementation exactly.

   Both entry families keep the four state words in unboxed locals, so a
   hash allocates only its boxed result:

   - [mac] / [mac_bytes] take a message of any length from a string or a
     caller-owned scratch buffer.  The state lives in four non-escaping
     [ref]s, which the native compiler turns into unboxed mutable
     variables, and message words come straight from
     [Bytes.get_int64_le].  Per-packet preimages that are not fixed-width
     (SIFF markings, NetFence feedback tokens) are written into a
     per-router buffer and hashed here.
   - [mac_short_k] takes a 9- or 11-byte message already packed into
     little-endian words (the TVA capability preimages): one
     straight-line chain of immutable [let]-bindings, fully unrolled. *)

let[@inline] rotl x b = Int64.logor (Int64.shift_left x b) (Int64.shift_right_logical x (64 - b))

(* The general path, over the first [len] bytes of [buf].  A mutable state
   record would box an int64 on every field store; local refs do not. *)
let hash_prefix ~key buf len =
  let k0 = String.get_int64_le key 0 and k1 = String.get_int64_le key 8 in
  let v0 = ref (Int64.logxor k0 0x736f6d6570736575L) in
  let v1 = ref (Int64.logxor k1 0x646f72616e646f6dL) in
  let v2 = ref (Int64.logxor k0 0x6c7967656e657261L) in
  let v3 = ref (Int64.logxor k1 0x7465646279746573L) in
  let full = len land lnot 7 in
  (* Last word: the remaining bytes plus the message length in the top byte. *)
  let last = ref (Int64.shift_left (Int64.of_int (len land 0xff)) 56) in
  for i = full to len - 1 do
    last :=
      Int64.logor !last
        (Int64.shift_left (Int64.of_int (Char.code (Bytes.unsafe_get buf i))) (8 * (i - full)))
  done;
  for w = 0 to full / 8 do
    let m = if 8 * w < full then Bytes.get_int64_le buf (8 * w) else !last in
    v3 := Int64.logxor !v3 m;
    for _ = 1 to 2 do
      v0 := Int64.add !v0 !v1;
      v1 := rotl !v1 13;
      v1 := Int64.logxor !v1 !v0;
      v0 := rotl !v0 32;
      v2 := Int64.add !v2 !v3;
      v3 := rotl !v3 16;
      v3 := Int64.logxor !v3 !v2;
      v0 := Int64.add !v0 !v3;
      v3 := rotl !v3 21;
      v3 := Int64.logxor !v3 !v0;
      v2 := Int64.add !v2 !v1;
      v1 := rotl !v1 17;
      v1 := Int64.logxor !v1 !v2;
      v2 := rotl !v2 32
    done;
    v0 := Int64.logxor !v0 m
  done;
  v2 := Int64.logxor !v2 0xffL;
  for _ = 1 to 4 do
    v0 := Int64.add !v0 !v1;
    v1 := rotl !v1 13;
    v1 := Int64.logxor !v1 !v0;
    v0 := rotl !v0 32;
    v2 := Int64.add !v2 !v3;
    v3 := rotl !v3 16;
    v3 := Int64.logxor !v3 !v2;
    v0 := Int64.add !v0 !v3;
    v3 := rotl !v3 21;
    v3 := Int64.logxor !v3 !v0;
    v2 := Int64.add !v2 !v1;
    v1 := rotl !v1 17;
    v1 := Int64.logxor !v1 !v2;
    v2 := rotl !v2 32
  done;
  Int64.logxor (Int64.logxor !v0 !v1) (Int64.logxor !v2 !v3)

let mac ~key msg =
  if String.length key <> 16 then invalid_arg "Siphash.mac: key must be 16 bytes";
  (* Read-only view: [hash_prefix] never writes to its buffer. *)
  hash_prefix ~key (Bytes.unsafe_of_string msg) (String.length msg)

let mac_bytes ~key buf ~len =
  if String.length key <> 16 then invalid_arg "Siphash.mac_bytes: key must be 16 bytes";
  if len < 0 || len > Bytes.length buf then invalid_arg "Siphash.mac_bytes: len out of range";
  hash_prefix ~key buf len

(* The hot-path variant: a message of 8..15 bytes is exactly one full word
   [w0] plus a final word made of [tail] (the remaining [len - 8] bytes in
   little-endian order, upper bytes zero) and the length byte.  The eight
   SipRounds are unrolled as shadowing [let]s on purpose: a mutable state
   record would box an int64 on every field store (~100 allocations per
   call), while this form compiles to register arithmetic. *)
let[@inline] mac_short_k ~k0 ~k1 ~len ~w0 ~tail =
  if len < 8 || len > 15 then invalid_arg "Siphash.mac_short_k: len must be in 8..15";
  let v0 = Int64.logxor k0 0x736f6d6570736575L in
  let v1 = Int64.logxor k1 0x646f72616e646f6dL in
  let v2 = Int64.logxor k0 0x6c7967656e657261L in
  let v3 = Int64.logxor k1 0x7465646279746573L in
  (* Compress w0: SIPROUND x2. *)
  let v3 = Int64.logxor v3 w0 in
  let v0 = Int64.add v0 v1 in
  let v1 = rotl v1 13 in
  let v1 = Int64.logxor v1 v0 in
  let v0 = rotl v0 32 in
  let v2 = Int64.add v2 v3 in
  let v3 = rotl v3 16 in
  let v3 = Int64.logxor v3 v2 in
  let v0 = Int64.add v0 v3 in
  let v3 = rotl v3 21 in
  let v3 = Int64.logxor v3 v0 in
  let v2 = Int64.add v2 v1 in
  let v1 = rotl v1 17 in
  let v1 = Int64.logxor v1 v2 in
  let v2 = rotl v2 32 in
  let v0 = Int64.add v0 v1 in
  let v1 = rotl v1 13 in
  let v1 = Int64.logxor v1 v0 in
  let v0 = rotl v0 32 in
  let v2 = Int64.add v2 v3 in
  let v3 = rotl v3 16 in
  let v3 = Int64.logxor v3 v2 in
  let v0 = Int64.add v0 v3 in
  let v3 = rotl v3 21 in
  let v3 = Int64.logxor v3 v0 in
  let v2 = Int64.add v2 v1 in
  let v1 = rotl v1 17 in
  let v1 = Int64.logxor v1 v2 in
  let v2 = rotl v2 32 in
  let v0 = Int64.logxor v0 w0 in
  (* Compress the final word: tail bytes + length in the top byte. *)
  let b = Int64.logor (Int64.shift_left (Int64.of_int len) 56) tail in
  let v3 = Int64.logxor v3 b in
  let v0 = Int64.add v0 v1 in
  let v1 = rotl v1 13 in
  let v1 = Int64.logxor v1 v0 in
  let v0 = rotl v0 32 in
  let v2 = Int64.add v2 v3 in
  let v3 = rotl v3 16 in
  let v3 = Int64.logxor v3 v2 in
  let v0 = Int64.add v0 v3 in
  let v3 = rotl v3 21 in
  let v3 = Int64.logxor v3 v0 in
  let v2 = Int64.add v2 v1 in
  let v1 = rotl v1 17 in
  let v1 = Int64.logxor v1 v2 in
  let v2 = rotl v2 32 in
  let v0 = Int64.add v0 v1 in
  let v1 = rotl v1 13 in
  let v1 = Int64.logxor v1 v0 in
  let v0 = rotl v0 32 in
  let v2 = Int64.add v2 v3 in
  let v3 = rotl v3 16 in
  let v3 = Int64.logxor v3 v2 in
  let v0 = Int64.add v0 v3 in
  let v3 = rotl v3 21 in
  let v3 = Int64.logxor v3 v0 in
  let v2 = Int64.add v2 v1 in
  let v1 = rotl v1 17 in
  let v1 = Int64.logxor v1 v2 in
  let v2 = rotl v2 32 in
  let v0 = Int64.logxor v0 b in
  (* Finalization: SIPROUND x4. *)
  let v2 = Int64.logxor v2 0xffL in
  let v0 = Int64.add v0 v1 in
  let v1 = rotl v1 13 in
  let v1 = Int64.logxor v1 v0 in
  let v0 = rotl v0 32 in
  let v2 = Int64.add v2 v3 in
  let v3 = rotl v3 16 in
  let v3 = Int64.logxor v3 v2 in
  let v0 = Int64.add v0 v3 in
  let v3 = rotl v3 21 in
  let v3 = Int64.logxor v3 v0 in
  let v2 = Int64.add v2 v1 in
  let v1 = rotl v1 17 in
  let v1 = Int64.logxor v1 v2 in
  let v2 = rotl v2 32 in
  let v0 = Int64.add v0 v1 in
  let v1 = rotl v1 13 in
  let v1 = Int64.logxor v1 v0 in
  let v0 = rotl v0 32 in
  let v2 = Int64.add v2 v3 in
  let v3 = rotl v3 16 in
  let v3 = Int64.logxor v3 v2 in
  let v0 = Int64.add v0 v3 in
  let v3 = rotl v3 21 in
  let v3 = Int64.logxor v3 v0 in
  let v2 = Int64.add v2 v1 in
  let v1 = rotl v1 17 in
  let v1 = Int64.logxor v1 v2 in
  let v2 = rotl v2 32 in
  let v0 = Int64.add v0 v1 in
  let v1 = rotl v1 13 in
  let v1 = Int64.logxor v1 v0 in
  let v0 = rotl v0 32 in
  let v2 = Int64.add v2 v3 in
  let v3 = rotl v3 16 in
  let v3 = Int64.logxor v3 v2 in
  let v0 = Int64.add v0 v3 in
  let v3 = rotl v3 21 in
  let v3 = Int64.logxor v3 v0 in
  let v2 = Int64.add v2 v1 in
  let v1 = rotl v1 17 in
  let v1 = Int64.logxor v1 v2 in
  let v2 = rotl v2 32 in
  let v0 = Int64.add v0 v1 in
  let v1 = rotl v1 13 in
  let v1 = Int64.logxor v1 v0 in
  let v0 = rotl v0 32 in
  let v2 = Int64.add v2 v3 in
  let v3 = rotl v3 16 in
  let v3 = Int64.logxor v3 v2 in
  let v0 = Int64.add v0 v3 in
  let v3 = rotl v3 21 in
  let v3 = Int64.logxor v3 v0 in
  let v2 = Int64.add v2 v1 in
  let v1 = rotl v1 17 in
  let v1 = Int64.logxor v1 v2 in
  let v2 = rotl v2 32 in
  Int64.logxor (Int64.logxor v0 v1) (Int64.logxor v2 v3)

(* Per-epoch callers preload (k0, k1) once via [key_words] and call
   [mac_short_k] directly, keeping the key checks off the per-packet path. *)
let mac_short ~key ~len ~w0 ~tail =
  if String.length key <> 16 then invalid_arg "Siphash.mac_short: key must be 16 bytes";
  mac_short_k ~k0:(String.get_int64_le key 0) ~k1:(String.get_int64_le key 8) ~len ~w0 ~tail

let key_words key =
  if String.length key <> 16 then invalid_arg "Siphash.key_words: key must be 16 bytes";
  (String.get_int64_le key 0, String.get_int64_le key 8)

let mac_string ~key msg =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (mac ~key msg);
  Bytes.unsafe_to_string b
