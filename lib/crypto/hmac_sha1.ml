let block_size = 64

let mac ~key msg =
  let key = if String.length key > block_size then Sha1.digest key else key in
  let k = Bytes.make block_size '\000' in
  Bytes.blit_string key 0 k 0 (String.length key);
  let xor_pad pad =
    let b = Bytes.create block_size in
    for i = 0 to block_size - 1 do
      Bytes.set b i (Char.chr (Char.code (Bytes.get k i) lxor pad))
    done;
    Bytes.unsafe_to_string b
  in
  let inner = Sha1.init () in
  Sha1.feed inner (xor_pad 0x36);
  Sha1.feed inner msg;
  let outer = Sha1.init () in
  Sha1.feed outer (xor_pad 0x5c);
  Sha1.feed outer (Sha1.get inner);
  Sha1.get outer
