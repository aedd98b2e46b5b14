module Writer = struct
  type t = { buf : Buffer.t; mutable acc : int; mutable acc_bits : int }

  let create () = { buf = Buffer.create 32; acc = 0; acc_bits = 0 }

  let flush_full_bytes t =
    while t.acc_bits >= 8 do
      let shift = t.acc_bits - 8 in
      Buffer.add_char t.buf (Char.chr ((t.acc lsr shift) land 0xff));
      t.acc <- t.acc land ((1 lsl shift) - 1);
      t.acc_bits <- shift
    done

  let put t ~bits v =
    if bits < 1 || bits > 62 then invalid_arg "Bitbuf.put: bits must be in 1..62";
    if v < 0 || (bits < 62 && v lsr bits <> 0) then invalid_arg "Bitbuf.put: value does not fit";
    (* Feed in chunks of at most 8 bits to keep the accumulator small. *)
    let remaining = ref bits in
    while !remaining > 0 do
      let take = min 8 !remaining in
      let chunk = (v lsr (!remaining - take)) land ((1 lsl take) - 1) in
      t.acc <- (t.acc lsl take) lor chunk;
      t.acc_bits <- t.acc_bits + take;
      remaining := !remaining - take;
      flush_full_bytes t
    done

  let put64 t ~bits v =
    if bits < 1 || bits > 64 then invalid_arg "Bitbuf.put64: bits must be in 1..64";
    if bits = 64 then begin
      put t ~bits:32 (Int64.to_int (Int64.shift_right_logical v 32) land 0xffffffff);
      put t ~bits:32 (Int64.to_int v land 0xffffffff)
    end
    else begin
      if Int64.shift_right_logical v bits <> 0L then
        invalid_arg "Bitbuf.put64: value does not fit";
      if bits <= 32 then put t ~bits (Int64.to_int v land ((1 lsl bits) - 1))
      else begin
        put t ~bits:(bits - 32) (Int64.to_int (Int64.shift_right_logical v 32) land ((1 lsl (bits - 32)) - 1));
        put t ~bits:32 (Int64.to_int v land 0xffffffff)
      end
    end

  let contents t =
    let s = Buffer.contents t.buf in
    if t.acc_bits = 0 then s
    else s ^ String.make 1 (Char.chr ((t.acc lsl (8 - t.acc_bits)) land 0xff))
end

module Reader = struct
  type t = { data : string; mutable bit : int }

  exception Truncated

  let create data = { data; bit = 0 }

  let get t ~bits =
    if bits < 1 || bits > 62 then invalid_arg "Bitbuf.get: bits must be in 1..62";
    if t.bit + bits > 8 * String.length t.data then raise Truncated;
    let v = ref 0 in
    for _ = 1 to bits do
      let byte = Char.code t.data.[t.bit / 8] in
      let b = (byte lsr (7 - (t.bit mod 8))) land 1 in
      v := (!v lsl 1) lor b;
      t.bit <- t.bit + 1
    done;
    !v

  let get64 t ~bits =
    if bits < 1 || bits > 64 then invalid_arg "Bitbuf.get64: bits must be in 1..64";
    if bits <= 32 then Int64.of_int (get t ~bits)
    else
      let hi = get t ~bits:(bits - 32) in
      let lo = get t ~bits:32 in
      Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

end
