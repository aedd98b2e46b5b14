(* Epoch keys are derived from the master by hashing, which costs two
   SipHash calls and three allocations.  Validation asks for the epoch key
   on every packet, so [t] memoizes the two epochs that can ever be live at
   once (current and previous) in two mutable slots; rotation shifts
   current into previous.  Epochs are non-negative, so -1 marks an empty
   slot. *)
type t = {
  master : string;
  mutable e_cur : int;
  mutable k_cur : string;
  mutable e_prev : int;
  mutable k_prev : string;
}

let rollover_period = 256.
let rotation_period = 128.

let create ~master = { master; e_cur = -1; k_cur = ""; e_prev = -1; k_prev = "" }

(* [floor] without the libm call: truncation rounds toward zero, so step
   down once for negative non-integers.  Equal to [int_of_float (floor x)]
   for every [x] in int range. *)
let[@inline] floor_int x =
  let i = int_of_float x in
  if float_of_int i > x then i - 1 else i

(* The period is a power of two, so multiplying by its reciprocal is
   exact and skips a division. *)
let[@inline] epoch ~now = floor_int (now *. (1. /. rotation_period))

let[@inline] timestamp ~now = floor_int now land 0xff

let derive t e =
  (* Epoch secrets are a keyed hash of the epoch under the master key:
     deterministic, and old secrets are recoverable only via the master. *)
  Siphash.mac_string ~key:"TVA secret deriv" (t.master ^ string_of_int e)
  ^ Siphash.mac_string ~key:"ation epoch key." (t.master ^ string_of_int e)

let rotate_to t e =
  let k = derive t e in
  t.e_prev <- t.e_cur;
  t.k_prev <- t.k_cur;
  t.e_cur <- e;
  t.k_cur <- k;
  k

(* The hit path inlines into the per-packet callers; a miss is a rotation. *)
let[@inline] secret_of_epoch t e =
  if e = t.e_cur then t.k_cur else if e = t.e_prev then t.k_prev else rotate_to t e

let issuing_secret t ~now = secret_of_epoch t (epoch ~now)

(* Epoch parity equals the high bit of the timestamps minted during it:
   epochs cover [0,128), [128,256), [256,384), ... so timestamps 0..127
   (high bit 0) come from even epochs and 128..255 from odd ones. *)
let epoch_parity e = e land 1

(* [""] rather than [None] for "no secret", so a hit returns the memoized
   string itself with no [Some] box on the per-packet path. *)
let[@inline] validating_secret t ~now ~ts =
  let e_now = epoch ~now in
  let high_bit = (ts lsr 7) land 1 in
  if epoch_parity e_now = high_bit then secret_of_epoch t e_now
  else if e_now > 0 then
    (* Parity alternates every epoch, so the previous one matches. *)
    secret_of_epoch t (e_now - 1)
  else ""
