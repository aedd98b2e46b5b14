(* SHA-1 per RFC 3174.  Operates on 512-bit blocks with five 32-bit chaining
   variables.  We keep the whole state in Int32 values; OCaml's Int32 ops are
   boxed but this is plenty fast for the simulator and benchmark use here. *)

type ctx = {
  mutable h0 : int32;
  mutable h1 : int32;
  mutable h2 : int32;
  mutable h3 : int32;
  mutable h4 : int32;
  block : bytes; (* 64-byte staging buffer *)
  mutable used : int; (* bytes of [block] currently filled *)
  mutable total : int64; (* total message bytes absorbed *)
  w : int32 array; (* 80-entry message schedule, reused across blocks *)
}

let init () =
  {
    h0 = 0x67452301l;
    h1 = 0xEFCDAB89l;
    h2 = 0x98BADCFEl;
    h3 = 0x10325476l;
    h4 = 0xC3D2E1F0l;
    block = Bytes.create 64;
    used = 0;
    total = 0L;
    w = Array.make 80 0l;
  }

let rol32 x n = Int32.logor (Int32.shift_left x n) (Int32.shift_right_logical x (32 - n))

let be32_of_bytes b off =
  let g i = Int32.of_int (Char.code (Bytes.get b (off + i))) in
  Int32.logor
    (Int32.shift_left (g 0) 24)
    (Int32.logor (Int32.shift_left (g 1) 16) (Int32.logor (Int32.shift_left (g 2) 8) (g 3)))

let process_block ctx b off =
  let w = ctx.w in
  for i = 0 to 15 do
    w.(i) <- be32_of_bytes b (off + (4 * i))
  done;
  for i = 16 to 79 do
    w.(i) <- rol32 (Int32.logxor (Int32.logxor w.(i - 3) w.(i - 8)) (Int32.logxor w.(i - 14) w.(i - 16))) 1
  done;
  let a = ref ctx.h0 and b' = ref ctx.h1 and c = ref ctx.h2 and d = ref ctx.h3 and e = ref ctx.h4 in
  for i = 0 to 79 do
    let f, k =
      if i < 20 then
        (Int32.logor (Int32.logand !b' !c) (Int32.logand (Int32.lognot !b') !d), 0x5A827999l)
      else if i < 40 then (Int32.logxor !b' (Int32.logxor !c !d), 0x6ED9EBA1l)
      else if i < 60 then
        ( Int32.logor
            (Int32.logand !b' !c)
            (Int32.logor (Int32.logand !b' !d) (Int32.logand !c !d)),
          0x8F1BBCDCl )
      else (Int32.logxor !b' (Int32.logxor !c !d), 0xCA62C1D6l)
    in
    let temp = Int32.add (Int32.add (Int32.add (rol32 !a 5) f) (Int32.add !e k)) w.(i) in
    e := !d;
    d := !c;
    c := rol32 !b' 30;
    b' := !a;
    a := temp
  done;
  ctx.h0 <- Int32.add ctx.h0 !a;
  ctx.h1 <- Int32.add ctx.h1 !b';
  ctx.h2 <- Int32.add ctx.h2 !c;
  ctx.h3 <- Int32.add ctx.h3 !d;
  ctx.h4 <- Int32.add ctx.h4 !e

let feed_bytes ctx ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  assert (off >= 0 && len >= 0 && off + len <= Bytes.length b);
  ctx.total <- Int64.add ctx.total (Int64.of_int len);
  let pos = ref off and remaining = ref len in
  (* Top up a partially filled staging block first. *)
  if ctx.used > 0 then begin
    let take = min !remaining (64 - ctx.used) in
    Bytes.blit b !pos ctx.block ctx.used take;
    ctx.used <- ctx.used + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.used = 64 then begin
      process_block ctx ctx.block 0;
      ctx.used <- 0
    end
  end;
  while !remaining >= 64 do
    process_block ctx b !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit b !pos ctx.block ctx.used !remaining;
    ctx.used <- ctx.used + !remaining
  end

let feed ctx s = feed_bytes ctx (Bytes.unsafe_of_string s)

let copy ctx =
  {
    ctx with
    block = Bytes.copy ctx.block;
    w = Array.make 80 0l;
  }

let put_be32 out off v =
  Bytes.set out off (Char.chr (Int32.to_int (Int32.shift_right_logical v 24) land 0xff));
  Bytes.set out (off + 1) (Char.chr (Int32.to_int (Int32.shift_right_logical v 16) land 0xff));
  Bytes.set out (off + 2) (Char.chr (Int32.to_int (Int32.shift_right_logical v 8) land 0xff));
  Bytes.set out (off + 3) (Char.chr (Int32.to_int v land 0xff))

let get ctx =
  let ctx = copy ctx in
  let bitlen = Int64.mul ctx.total 8L in
  (* Append 0x80, pad with zeros to 56 mod 64, then the 64-bit big-endian
     bit length. *)
  let pad_len =
    let r = (ctx.used + 1 + 8) mod 64 in
    if r = 0 then 1 else 1 + (64 - r)
  in
  let tail = Bytes.make (pad_len + 8) '\000' in
  Bytes.set tail 0 '\x80';
  for i = 0 to 7 do
    let shift = 8 * (7 - i) in
    Bytes.set tail (pad_len + i)
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bitlen shift) 0xffL)))
  done;
  (* Absorb the padding without recounting it in [total]. *)
  let saved_total = ctx.total in
  feed_bytes ctx tail;
  ctx.total <- saved_total;
  assert (ctx.used = 0);
  let out = Bytes.create 20 in
  put_be32 out 0 ctx.h0;
  put_be32 out 4 ctx.h1;
  put_be32 out 8 ctx.h2;
  put_be32 out 12 ctx.h3;
  put_be32 out 16 ctx.h4;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  get ctx
