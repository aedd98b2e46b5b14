(* The one fixed-point token meter.  [Token_bucket]'s qdisc keeps its
   tokens in one of these (refill, then [take] or [ready_at]), and
   NetFence's AIMD limiters call [admit] on theirs; the fill rate is
   mutable so a controller can retune it between packets. *)

type t = {
  mutable rate_bytes : float;
  mutable rate_fp : float; (* bytes/s scaled by 2^fp_shift, for refill *)
  burst_fp : int;
  mutable tokens : int; (* fixed point: bytes * 2^fp_shift, an immediate *)
  last : float array; (* [|last refill time|]: flat float, unboxed store *)
}

(* Tokens are bytes scaled by 2^20: sub-microbyte resolution, so the
   truncation on refill shifts a release time by well under a nanosecond
   of virtual time, while a 4 GB burst still fits an immediate int with
   twenty bits to spare.  Being an immediate is the point — a mutable
   int64 or float record field would box on every store. *)
let fp_shift = 20

let fp_one = float_of_int (1 lsl fp_shift)

let create ~rate_bps ~burst_bytes =
  if rate_bps <= 0. then invalid_arg "Policer.create: rate must be positive";
  if burst_bytes <= 0 then invalid_arg "Policer.create: burst must be positive";
  let rate_bytes = rate_bps /. 8. in
  let burst_fp = burst_bytes lsl fp_shift in
  {
    rate_bytes;
    rate_fp = rate_bytes *. fp_one;
    burst_fp;
    tokens = burst_fp;
    last = [| 0. |];
  }

let set_rate t ~rate_bps =
  if rate_bps <= 0. then invalid_arg "Policer.set_rate: rate must be positive";
  let rate_bytes = rate_bps /. 8. in
  t.rate_bytes <- rate_bytes;
  t.rate_fp <- rate_bytes *. fp_one

let rate_bps t = t.rate_bytes *. 8.

let refill t ~now =
  let last = Array.unsafe_get t.last 0 in
  if now > last then begin
    let grant = t.rate_fp *. (now -. last) in
    let deficit = t.burst_fp - t.tokens in
    if grant >= float_of_int deficit then begin
      t.tokens <- t.burst_fp;
      Array.unsafe_set t.last 0 now
    end
    else begin
      (* Advance [last] only over the interval the whole units account
         for, so the fractional remainder keeps accruing.  Truncating it
         away (last <- now) live-locks: when a staged packet is one unit
         short, the re-poll interval is 1/rate_fp seconds, over which the
         truncated grant is 0 whole units — tokens freeze and the
         transmitter polls forever. *)
      let g = int_of_float grant in
      if g > 0 then begin
        t.tokens <- t.tokens + g;
        Array.unsafe_set t.last 0 (last +. (float_of_int g /. t.rate_fp))
      end
    end
  end

(* A full bucket's refill only moves [last] to [now], and the next refill
   of a full bucket leaves the same state whatever [last] was, so a caller
   may skip refills while this holds. *)
let full t = t.tokens = t.burst_fp [@@inline]

let take t ~bytes =
  let need = bytes lsl fp_shift in
  if t.tokens >= need then begin
    t.tokens <- t.tokens - need;
    true
  end
  else false
  [@@inline]

let ready_at t ~now ~bytes =
  let need = bytes lsl fp_shift in
  if t.tokens >= need then now else now +. (float_of_int (need - t.tokens) /. t.rate_fp)
  [@@inline]

let admit t ~now ~bytes =
  refill t ~now;
  take t ~bytes
