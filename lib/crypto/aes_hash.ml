(* Matyas–Meyer–Oseas over AES-128: the chaining value keys the cipher and
   the message block is both encrypted and xored into the output.  MD
   strengthening (0x80 + 64-bit length) prevents trivial extension of the
   padding. *)

let iv = "TVA aes-hash IV\000"

let pad msg =
  let len = String.length msg in
  let rem = (len + 1 + 8) mod 16 in
  let zeros = if rem = 0 then 0 else 16 - rem in
  let b = Buffer.create (len + 1 + zeros + 8) in
  Buffer.add_string b msg;
  Buffer.add_char b '\x80';
  for _ = 1 to zeros do
    Buffer.add_char b '\000'
  done;
  let bits = Int64.of_int (len * 8) in
  for i = 7 downto 0 do
    Buffer.add_char b (Char.chr (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff))
  done;
  Buffer.contents b

let hash_padded padded =
  let n = String.length padded / 16 in
  let h = Bytes.of_string iv in
  let block = Bytes.create 16 in
  for i = 0 to n - 1 do
    let key = Aes128.expand_key (Bytes.to_string h) in
    Bytes.blit_string padded (16 * i) block 0 16;
    Aes128.encrypt_block key block ~src_off:0 h ~dst_off:0;
    for j = 0 to 15 do
      Bytes.set h j (Char.chr (Char.code (Bytes.get h j) lxor Char.code padded.[(16 * i) + j]))
    done
  done;
  Bytes.unsafe_to_string h

let digest msg = hash_padded (pad msg)

let mac ~key msg =
  (* Prefixing the key as the first absorbed block keys every subsequent
     chaining value; MD strengthening covers the combined length. *)
  let keyed = key ^ "\x01" ^ msg in
  digest keyed
