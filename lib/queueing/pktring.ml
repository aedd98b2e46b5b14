(* A growable ring buffer of packets: the storage behind every FIFO in the
   queueing layer.  [Stdlib.Queue] allocates a 3-word cell per push; this
   ring allocates only when it doubles its backing array, so a queue that
   has reached its working-set size pushes and pops with zero allocation.

   Empty slots hold [nil] (a shared dummy packet) rather than the last
   occupant, so popping a packet also releases the ring's reference to it
   — a drained queue never pins packets against the GC. *)

type t = {
  mutable buf : Wire.Packet.t array;
  mutable head : int; (* index of the oldest element; wraps via land mask *)
  mutable len : int;
}

(* The shared "no packet" sentinel.  Distinguished by physical identity;
   never enqueued (enqueueing it would make [pop]'s result ambiguous). *)
let nil =
  Wire.Packet.make
    ~src:(Wire.Addr.of_int 0)
    ~dst:(Wire.Addr.of_int 0) (Wire.Packet.Raw 0)

let initial_capacity = 8 (* power of two: index arithmetic is a mask *)

let create () = { buf = Array.make initial_capacity nil; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let[@inline] mask t i = i land (Array.length t.buf - 1)

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (2 * cap) nil in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.(mask t (t.head + i))
  done;
  t.buf <- buf;
  t.head <- 0

let push t p =
  if p == nil then invalid_arg "Pktring.push: cannot enqueue the nil sentinel";
  if t.len = Array.length t.buf then grow t;
  t.buf.(mask t (t.head + t.len)) <- p;
  t.len <- t.len + 1

(* [peek]/[pop] return [nil] when empty: the hot path tests with [==]
   instead of allocating an option. *)

let peek t = if t.len = 0 then nil else t.buf.(t.head)

let pop t =
  if t.len = 0 then nil
  else begin
    let i = t.head in
    let p = t.buf.(i) in
    t.buf.(i) <- nil;
    t.head <- mask t (i + 1);
    t.len <- t.len - 1;
    p
  end
