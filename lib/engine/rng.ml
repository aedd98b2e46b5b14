(* xoshiro256** seeded by SplitMix64, per Blackman & Vigna's reference
   implementation.  Int64 arithmetic wraps, which is exactly what both
   algorithms assume. *)

(* The state is an ordinary 32-byte block holding s0..s3, read and
   written with the unboxed 64-bit bytes primitives: a draw allocates only
   its result, where a record of four mutable [int64]s boxed every state
   write.  A [Bigarray] would be a malloc'd custom block per generator,
   and set-up splits one per endpoint and flooder. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let splitmix64 state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Four SplitMix64 outputs from [st] seed a fresh generator. *)
let of_splitmix st =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64 t (8 * i) (splitmix64 st)
  done;
  t

let create ~seed = of_splitmix (ref (Int64.of_int seed))

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* Inlined into every draw, so the state words stay unboxed. *)
let[@inline] next t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tt = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set64 t 8 (Int64.logxor s1 s2);
  set64 t 0 (Int64.logxor s0 s3);
  set64 t 16 (Int64.logxor s2 tt);
  set64 t 24 (rotl s3 45);
  result

let bits64 t = next t
let split t = of_splitmix (ref (next t))

(* 53 high bits give a uniform double in [0,1). *)
let[@inline] unit_float bits =
  Int64.to_float (Int64.shift_right_logical bits 11) /. 9007199254740992.

let[@inline] float t bound = unit_float (next t) *. bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Modulo bias is negligible for the bounds used here (< 2^32). *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let bool t = Int64.logand (next t) 1L = 1L

let exponential t ~mean =
  let u = unit_float (next t) in
  (* Guard against log 0. *)
  let u = if u <= 0. then 1e-300 else u in
  -.mean *. log u

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.unsafe_chr (Int64.to_int (next t) land 0xff))
  done;
  Bytes.unsafe_to_string b

(* Per-lane derivation for aggregate senders: lane [i] of [seed] is a
   SplitMix64 expansion of a golden-ratio mix of the two, so any lane can
   be materialized independently ([lane]) or held packed in a bank.  The
   two must stay bit-identical — the aggregate-vs-real-senders equivalence
   test depends on it. *)
let lane_seed_state ~seed i =
  ref (Int64.logxor (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L) (Int64.of_int seed))

let lane ~seed i = of_splitmix (lane_seed_state ~seed i)

module Bank = struct
  (* One flat int64 Bigarray holds the state of [n] lanes, lane [i]'s four
     xoshiro words together at [4i .. 4i+3]: a draw reads and writes one
     32-byte run, where four separate arrays cost up to four cache misses
     per draw at 10^5 lanes.  Bigarray storage is unboxed and invisible to
     the GC, so a million-member bank costs 32 MB flat and adds nothing to
     the marking load. *)
  type lanes = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = { s : lanes; n : int }

  let create ~seed ~n =
    if n <= 0 then invalid_arg "Rng.Bank.create: n must be positive";
    let s = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (4 * n) in
    for i = 0 to n - 1 do
      let st = lane_seed_state ~seed i in
      for k = 0 to 3 do
        s.{(4 * i) + k} <- splitmix64 st
      done
    done;
    { s; n }

  let bad_lane i = invalid_arg (Printf.sprintf "Rng.Bank: lane %d out of range" i)

  external get : lanes -> int -> int64 = "%caml_ba_unsafe_ref_1"
  external set : lanes -> int -> int64 -> unit = "%caml_ba_unsafe_set_1"

  (* Inlined into every draw, so neither the state words nor the result
     are boxed.  The one bounds check on [i] covers the four unchecked
     accesses. *)
  let[@inline] bits64 t i =
    if i < 0 || i >= t.n then bad_lane i;
    let s = t.s and o = 4 * i in
    let s0 = get s o and s1 = get s (o + 1) and s2 = get s (o + 2) and s3 = get s (o + 3) in
    let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
    let tt = Int64.shift_left s1 17 in
    let s2 = Int64.logxor s2 s0 in
    let s3 = Int64.logxor s3 s1 in
    set s (o + 1) (Int64.logxor s1 s2);
    set s o (Int64.logxor s0 s3);
    set s (o + 2) (Int64.logxor s2 tt);
    set s (o + 3) (rotl s3 45);
    result

  let[@inline] float t i bound = unit_float (bits64 t i) *. bound
end
