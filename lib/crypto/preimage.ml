(* Each writer stores at [pos] in a caller-owned buffer and returns the
   position just past what it wrote, so a preimage is a chain of calls
   threading one int.  Nothing here allocates. *)

let max_decimal_len = 20

let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let put_char b pos c =
  Bytes.set b pos c;
  pos + 1

(* Digits are produced from the non-positive value [-|n|] so [min_int],
   whose magnitude has no positive int, prints like every other negative. *)
let put_decimal b pos n =
  let m = if n < 0 then n else -n in
  let digits = ref 1 and r = ref m in
  while !r <= -10 do
    incr digits;
    r := !r / 10
  done;
  let pos = if n < 0 then put_char b pos '-' else pos in
  let r = ref m in
  for i = pos + !digits - 1 downto pos do
    Bytes.set b i (Char.unsafe_chr (Char.code '0' - (!r mod 10)));
    r := !r / 10
  done;
  pos + !digits

let put_be32 b pos v =
  Bytes.set_int32_be b pos (Int32.of_int v);
  pos + 4
