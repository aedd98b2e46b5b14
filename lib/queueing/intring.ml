(* A growable ring buffer of ints: DRR's round-robin ring of class keys.
   Replaces [int Queue.t], whose every push allocated a cell (and boxed
   the key when polymorphic).  Steady-state push/pop allocate nothing. *)

type t = {
  mutable buf : int array;
  mutable head : int;
  mutable len : int;
}

let initial_capacity = 8 (* power of two *)

let create () = { buf = Array.make initial_capacity 0; head = 0; len = 0 }

let is_empty t = t.len = 0

let[@inline] mask t i = i land (Array.length t.buf - 1)

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (2 * cap) 0 in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.(mask t (t.head + i))
  done;
  t.buf <- buf;
  t.head <- 0

let push t k =
  if t.len = Array.length t.buf then grow t;
  t.buf.(mask t (t.head + t.len)) <- k;
  t.len <- t.len + 1

exception Empty

let pop t =
  if t.len = 0 then raise Empty
  else begin
    let k = t.buf.(t.head) in
    t.head <- mask t (t.head + 1);
    t.len <- t.len - 1;
    k
  end
